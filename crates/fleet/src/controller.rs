//! The fleet core: a sharded host×container index answering
//! cluster-wide queries over every periphery's streamed view state.
//!
//! The controller ingests [`crate::protocol`] frames (transport-agnostic
//! — the wire server and the in-process campaign both call
//! [`FleetController::handle_frame`]), maintains per-shard running
//! totals so capacity rollups are O(shards) rather than O(containers),
//! and journals every accepted delta through `arv-persist` so a crashed
//! controller warm-restarts prefix-consistently and is caught up by
//! periphery resyncs.
//!
//! # Replication and leadership
//!
//! A controller can run **replicated**: the primary streams every
//! accepted journal record to hot standbys over `REPL` frames
//! ([`FleetController::take_repl_frames`]); a standby applies them into
//! a *live* shadow index ([`FleetController::handle_frame`] on the
//! REPL opcode) so promotion costs no replay. Leadership is governed by
//! a shared [`SharedLease`] with monotone epochs: the holder renews on
//! every tick (same epoch); a standby acquires only after expiry (epoch
//! bumped), then marks every host `needs_resync` + partitioned —
//! last-good rollups stay servable while FULL snapshots converge the
//! index. Every ACK and ROLLUP is stamped with the sender's epoch;
//! anything stamped lower than the highest epoch a receiver has seen is
//! **fenced** (counted, never applied), so a deposed primary cannot
//! corrupt state no matter how long it keeps talking.
//!
//! # Sequence and staleness rules
//!
//! Each host's DELTA frames carry a dense sequence number. The
//! controller applies in-order frames incrementally; any gap flips the
//! host into `needs_resync` and every ACK requests a FULL snapshot
//! until one arrives (mirroring the single-host watchdog's gap →
//! resync rule). A host with no accepted delta for more than the
//! policy's staleness budget of controller ticks is flagged
//! *partitioned*: its last-good contribution stays in every rollup,
//! but the rollup is flagged degraded — the cluster-level analogue of
//! the staleness fallback.

use arv_persist::lease::{Lease, LeaseError, LeaseFile};
use arv_persist::{
    decode_records, frame_checkpoint, frame_delta, frame_remove, framed_len, restore,
    DurableJournal, Edge, MemStore, Record, Snapshot, Store, StoreError, ViewState,
};
use arv_telemetry::{FlightRecorder, FlightTrigger, LagHistogram, PipelineEvent, PromText, Tracer};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::protocol::{
    decode_frame, encode_ack, encode_policy, encode_repl_parts, encode_rollup, Ack, ClusterRollup,
    Delta, DeltaEntry, FleetPolicy, Frame, HostSummary, PressurePoint, Query, Repl, Rollup,
    RollupFrame, SpanStamp, TenantRollup, MAX_FLEET_FRAME, QUERY_CLUSTER, QUERY_FLIGHT,
    QUERY_STATS, QUERY_TENANT, QUERY_TOPK, REPL_PEER,
};

/// A lease store shared between contending controllers — the
/// simulation's stand-in for a lease file on shared storage.
#[derive(Debug, Clone, Default)]
pub struct SharedLease(Arc<Mutex<LeaseFile>>);

impl SharedLease {
    /// An empty (never-granted) shared lease.
    pub fn new() -> SharedLease {
        SharedLease::default()
    }

    /// A shared lease over a caller-supplied storage backend (e.g. a
    /// seeded `FaultyStore` in chaos campaigns).
    pub fn with_store(store: Box<dyn Store>) -> SharedLease {
        SharedLease(Arc::new(Mutex::new(LeaseFile::with_store(store))))
    }

    /// Try to acquire for `holder` (see [`LeaseFile::try_acquire`]).
    pub fn try_acquire(&self, holder: u32, now: u64, ttl: u64) -> Result<Lease, LeaseError> {
        lock(&self.0).try_acquire(holder, now, ttl)
    }

    /// Strictly renew an already-held lease (see [`LeaseFile::renew`]):
    /// never takes over, so a holder that cannot persist the renewal
    /// learns it must step down.
    pub fn renew(&self, holder: u32, now: u64, ttl: u64) -> Result<Lease, LeaseError> {
        lock(&self.0).renew(holder, now, ttl)
    }

    /// Advance the store's fault clock (drives `FaultyStore` windows).
    pub fn set_tick(&self, tick: u64) {
        lock(&self.0).set_tick(tick);
    }
}

/// Mask for the host-tick bits of a journaled `last_tick` (the tenant
/// rides the top 16 bits — see [`pack_id`]).
const TICK_MASK: u64 = (1 << 48) - 1;

/// Pack a (host, container) pair into a journalable `ViewState` id.
/// Both must fit 16 bits — the fleet model caps at 65 536 hosts and
/// 65 536 containers per host, far above the paper's scale.
fn pack_id(host: u32, container: u32) -> Option<u32> {
    if host <= 0xFFFF && container <= 0xFFFF {
        Some((host << 16) | container)
    } else {
        None
    }
}

/// The journalable form of one container's entry on `host`: id packed
/// by [`pack_id`], tenant in the top 16 bits of `last_tick` (host ticks
/// never approach 2^48). `None` if the ids do not fit.
fn pack_state(host: u32, e: &DeltaEntry) -> Option<ViewState> {
    Some(ViewState {
        id: pack_id(host, e.id)?,
        e_cpu: e.e_cpu,
        e_mem: e.e_mem,
        e_avail: e.e_avail,
        last_tick: (u64::from(e.tenant) << 48) | (e.last_tick & TICK_MASK),
    })
}

/// [`pack_state`] undone: the container's entry on host `e.id >> 16`.
fn unpack_state(e: &ViewState) -> DeltaEntry {
    DeltaEntry {
        id: e.id & 0xFFFF,
        tenant: (e.last_tick >> 48) as u32,
        e_cpu: e.e_cpu,
        e_mem: e.e_mem,
        e_avail: e.e_avail,
        last_tick: e.last_tick & TICK_MASK,
    }
}

/// The controller's counters, listed once: [`FleetMetrics`] holds them
/// lock-free, [`FleetMetricsSnapshot`] is a point-in-time copy.
macro_rules! fleet_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Lock-free counters for the controller. The four headline
        /// counters (`deltas_ingested`, `deltas_gap_resyncs`,
        /// `hosts_partitioned`, `rollup_queries`) are the ones the
        /// Prometheus exposition leads with.
        #[derive(Debug, Default)]
        pub struct FleetMetrics {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// A point-in-time copy of [`FleetMetrics`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct FleetMetricsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl FleetMetrics {
            /// Copy the counters.
            pub fn snapshot(&self) -> FleetMetricsSnapshot {
                FleetMetricsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }
    };
}

fleet_counters! {
    /// DELTA frames accepted and applied.
    deltas_ingested,
    /// Delta entries applied across all accepted frames.
    delta_entries,
    /// Sequence gaps detected (each flips a host into resync).
    deltas_gap_resyncs,
    /// FULL snapshots accepted.
    full_syncs,
    /// Transitions of a host into the partitioned state.
    hosts_partitioned,
    /// Rollup queries answered (cluster, tenant, top-k, stats).
    rollup_queries,
    /// Frames that failed to decode (connection-fatal for the sender).
    malformed_frames,
    /// Policy blocks pushed down in ACKs.
    policy_pushes,
    /// HELLO frames answered.
    hellos,
    /// Standby→primary promotions (lease takeovers).
    promotions,
    /// Primary→standby demotions (lost lease / saw a higher epoch).
    demotions,
    /// Journal records streamed out in REPL frames (primary side).
    repl_records_streamed,
    /// Journal records applied into the shadow index (standby side).
    repl_records_applied,
    /// REPL frames fenced for carrying a stale controller epoch.
    repl_fenced,
    /// Full checkpoints queued because a standby lost REPL sequence.
    repl_gap_snapshots,
    /// REPL frames whose record stream was torn or corrupt (the valid
    /// prefix was applied; a checkpoint was demanded).
    repl_truncated,
    /// HELLO/DELTA frames rejected because this controller does not
    /// hold the lease.
    not_leader_rejects,
    /// Journal/lease store errors absorbed by this controller (its own
    /// durability ladder, not the per-host summaries). The unit is one
    /// refused store interaction: a DELTA's record batch, a REPL
    /// frame's shadow write, a tick's sync or checkpoint, or a lease
    /// write — not one per record in a refused batch.
    journal_io_errors,
}

/// Causal events retained per host for [`FleetController::explain_host`].
pub const EXPLAIN_EVENTS: usize = 16;

/// What happened to a host, as recorded in its causal event ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostEventKind {
    /// The host introduced itself (attach or reconnect).
    Hello,
    /// An in-order incremental delta was applied.
    DeltaApplied,
    /// A FULL snapshot replaced the host's state.
    FullApplied,
    /// A sequence gap flipped the host into resync.
    GapResync,
    /// The host fell silent past the staleness budget.
    Partitioned,
    /// A promoted standby marked the host last-good pending resync.
    Promoted,
    /// The host reported its journal lost durability.
    DurabilityLost,
    /// The host reported its journal healed back to durable.
    DurabilityRestored,
}

/// One entry of a host's causal event ring: what happened, when (in
/// controller ticks), and the span coordinates it happened at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostCausalEvent {
    /// Controller tick the event was recorded at.
    pub tick: u64,
    /// What happened.
    pub kind: HostEventKind,
    /// The delta sequence involved (the frame's for applies/gaps, the
    /// expected one for hello/partition/promotion events).
    pub seq: u64,
    /// The host origin tick in force when the event was recorded.
    pub origin_tick: u64,
}

/// The answer to "why is host H stale/partitioned/fenced": the host's
/// current span state plus its last [`EXPLAIN_EVENTS`] causal events.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetExplain {
    /// The host being explained.
    pub host: u32,
    /// Host-reported health byte of the last accepted delta.
    pub health: u8,
    /// Whether the host last reported its journal durability lost.
    pub durability_lost: bool,
    /// Whether the host is currently flagged partitioned.
    pub partitioned: bool,
    /// Whether ACKs are demanding a FULL snapshot.
    pub needs_resync: bool,
    /// Next DELTA sequence accepted in order.
    pub expected_seq: u64,
    /// Origin tick of the newest accepted delta (span start).
    pub origin_tick: u64,
    /// Host flush tick of the newest accepted delta.
    pub flush_tick: u64,
    /// Controller tick the newest delta was ingested at.
    pub ingest_tick: u64,
    /// Newest periphery trace sequence ingested.
    pub trace_seq: u64,
    /// End-to-end freshness lag right now, in controller ticks
    /// (`now − origin_tick`).
    pub freshness_lag: u64,
    /// Containers currently tracked for the host.
    pub containers: u64,
    /// The periphery's piggybacked counter summary.
    pub summary: HostSummary,
    /// End-to-end lag distribution across every accepted delta.
    pub waterfall: LagHistogram,
    /// The last causal events, oldest first.
    pub events: Vec<HostCausalEvent>,
}

/// One tracked host.
#[derive(Debug, Default)]
struct HostEntry {
    /// Next DELTA sequence accepted in order.
    expected_seq: u64,
    /// Controller tick of the last accepted delta (staleness clock).
    last_delta_tick: u64,
    /// Host-side update-timer tick of the last accepted delta.
    host_tick: u64,
    /// Host-reported health byte of the last accepted delta.
    health: u8,
    /// Host-reported durability flag of the last accepted delta.
    durability_lost: bool,
    /// Currently flagged partitioned (contribution served last-good).
    partitioned: bool,
    /// A gap was detected; ACKs demand a FULL snapshot until one lands.
    needs_resync: bool,
    /// Origin tick of the newest accepted delta (causal span start).
    origin_tick: u64,
    /// Newest periphery trace sequence ingested.
    trace_seq: u64,
    /// The periphery's piggybacked counter summary, as last seen.
    summary: HostSummary,
    /// End-to-end (origin tick → ingest) lag histogram.
    waterfall: LagHistogram,
    /// Recent causal events, oldest first, capped at [`EXPLAIN_EVENTS`].
    events: VecDeque<HostCausalEvent>,
    /// Live container states.
    containers: HashMap<u32, DeltaEntry>,
}

impl HostEntry {
    fn push_event(&mut self, tick: u64, kind: HostEventKind, seq: u64) {
        self.events.push_back(HostCausalEvent {
            tick,
            kind,
            seq,
            origin_tick: self.origin_tick,
        });
        while self.events.len() > EXPLAIN_EVENTS {
            self.events.pop_front();
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    cpu: u64,
    mem: u64,
    avail: u64,
    containers: u64,
}

impl Totals {
    fn add(&mut self, e: &DeltaEntry) {
        self.cpu += u64::from(e.e_cpu);
        self.mem += e.e_mem;
        self.avail += e.e_avail;
        self.containers += 1;
    }

    fn sub(&mut self, e: &DeltaEntry) {
        self.cpu -= u64::from(e.e_cpu);
        self.mem -= e.e_mem;
        self.avail -= e.e_avail;
        self.containers -= 1;
    }
}

/// One shard: a slice of the host index plus its running sums — two
/// fields, so a host is updated borrowed in place beside the sums.
#[derive(Debug, Default)]
struct Shard {
    hosts: HashMap<u32, HostEntry>,
    sums: Sums,
}

/// A shard's running totals, overall and per tenant.
#[derive(Debug, Default)]
struct Sums {
    totals: Totals,
    tenants: HashMap<u32, Totals>,
}

impl Sums {
    fn upsert(&mut self, host: &mut HostEntry, e: DeltaEntry) {
        if let Some(old) = host.containers.insert(e.id, e) {
            self.totals.sub(&old);
            if let Some(t) = self.tenants.get_mut(&old.tenant) {
                t.sub(&old);
            }
        }
        self.totals.add(&e);
        self.tenants.entry(e.tenant).or_default().add(&e);
    }

    fn remove(&mut self, host: &mut HostEntry, id: u32) -> bool {
        match host.containers.remove(&id) {
            Some(old) => {
                self.totals.sub(&old);
                if let Some(t) = self.tenants.get_mut(&old.tenant) {
                    t.sub(&old);
                }
                true
            }
            None => false,
        }
    }
}

/// Lease plumbing: the shared store this controller contends on.
#[derive(Debug)]
struct LeaseState {
    store: SharedLease,
    holder: u32,
    ttl: u64,
    /// Fault hook: a stalled controller cannot reach the lease store
    /// (renewals and acquisitions silently fail).
    stalled: bool,
}

/// Replication plumbing, used on both sides: the primary's record
/// outbox and the standby's apply cursor.
#[derive(Debug, Default)]
struct ReplState {
    /// Primary: CRC-framed records not yet shipped, back to back — the
    /// very bytes the journal appended.
    outbox: Vec<u8>,
    /// Primary: how many records `outbox` holds.
    outbox_records: u64,
    /// Primary: hosts whose DELTA was accepted since the last drain —
    /// their freshness rides the next REPL frame, records or none.
    heard: BTreeSet<u32>,
    /// Primary: sequence of the next REPL frame to send.
    next_seq: u64,
    /// Standby: next REPL sequence accepted in order.
    expected_seq: u64,
    /// Standby: lost sequence — only a checkpoint-led frame realigns.
    need_snapshot: bool,
    /// Primary: a standby demanded a full checkpoint.
    send_snapshot: bool,
    /// Standby: the primary's tick stamped on the last applied REPL
    /// frame — how fresh the shadow index is.
    last_as_of: u64,
}

/// The central aggregator of the fleet control plane.
#[derive(Debug)]
pub struct FleetController {
    shards: Box<[Mutex<Shard>]>,
    mask: u64,
    policy: Mutex<FleetPolicy>,
    tick: AtomicU64,
    metrics: FleetMetrics,
    journal: Mutex<Option<DurableJournal>>,
    /// Monotone controller epoch stamped on every ACK and ROLLUP.
    /// Lease-less controllers stay at epoch 0 (single-controller
    /// deployments predating replication).
    ctl_epoch: AtomicU64,
    /// Whether this controller currently believes it leads. Always true
    /// without an attached lease.
    leader: AtomicBool,
    lease: Mutex<Option<LeaseState>>,
    repl: Mutex<Option<ReplState>>,
    tracer: Tracer,
    flight: FlightRecorder,
}

impl FleetController {
    /// A controller with `shards` index shards (rounded up to a power of
    /// two) under `policy`.
    pub fn new(shards: usize, policy: FleetPolicy) -> FleetController {
        let n = shards.max(1).next_power_of_two();
        FleetController {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            mask: n as u64 - 1,
            policy: Mutex::new(policy),
            tick: AtomicU64::new(0),
            metrics: FleetMetrics::default(),
            journal: Mutex::new(None),
            ctl_epoch: AtomicU64::new(0),
            leader: AtomicBool::new(true),
            lease: Mutex::new(None),
            repl: Mutex::new(None),
            tracer: Tracer::disabled(),
            flight: FlightRecorder::disabled(),
        }
    }

    /// Route fleet pipeline events (partition flagged, gap resync,
    /// promotion, fence, durability edges) into a trace ring. Call
    /// before sharing the controller.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attach a flight recorder: anomaly triggers (gap resync, fence,
    /// promotion, demotion, partition) freeze the tracer's recent
    /// events plus a counter snapshot into retrievable dumps. Call
    /// before sharing the controller.
    pub fn set_flight_recorder(&mut self, flight: FlightRecorder) {
        self.flight = flight;
    }

    /// The attached flight recorder (disabled unless
    /// [`set_flight_recorder`](Self::set_flight_recorder) was called).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Freeze a flight dump around an anomaly: the trace ring as it
    /// stands plus the headline counters. No-op when disabled.
    fn record_flight(&self, now: u64, trigger: FlightTrigger) {
        if !self.flight.is_enabled() {
            return;
        }
        let m = self.metrics.snapshot();
        self.flight.record(
            now,
            trigger,
            &self.tracer,
            &[
                ("deltas_ingested", m.deltas_ingested),
                ("deltas_gap_resyncs", m.deltas_gap_resyncs),
                ("hosts_partitioned", m.hosts_partitioned),
                ("full_syncs", m.full_syncs),
                ("promotions", m.promotions),
                ("demotions", m.demotions),
                ("repl_fenced", m.repl_fenced),
                ("ctl_epoch", self.ctl_epoch()),
            ],
        );
    }

    /// Record an edge of a durability ladder — this controller's own or
    /// a host's: a trace-ring entry and a flight dump.
    fn durability_edge(&self, now: u64, lost: bool) {
        let (event, trigger) = if lost {
            (PipelineEvent::DurabilityLost, FlightTrigger::DurabilityLost)
        } else {
            (
                PipelineEvent::DurabilityRestored,
                FlightTrigger::DurabilityRestored,
            )
        };
        self.tracer.emit_pipeline(now, None, event);
        self.record_flight(now, trigger);
    }

    /// Settle one store interaction on the controller's own durability
    /// ladder; a refusal also counts in `journal_io_errors`.
    fn settle(
        &self,
        journal: &mut DurableJournal,
        result: Result<(), StoreError>,
        checkpoint: bool,
    ) -> Option<Edge> {
        if result.is_err() {
            self.metrics
                .journal_io_errors
                .fetch_add(1, Ordering::Relaxed);
        }
        journal.settle(result, checkpoint)
    }

    /// The controller's staleness clock (advanced by the driver once per
    /// aggregation period).
    pub fn now_tick(&self) -> u64 {
        self.tick.load(Ordering::Acquire)
    }

    /// The controller epoch stamped on every ACK and ROLLUP.
    pub fn ctl_epoch(&self) -> u64 {
        self.ctl_epoch.load(Ordering::Acquire)
    }

    /// Whether this controller currently believes it holds the lease.
    pub fn is_leader(&self) -> bool {
        self.leader.load(Ordering::Acquire)
    }

    /// The policy currently pushed down to peripheries.
    pub fn policy(&self) -> FleetPolicy {
        *lock(&self.policy)
    }

    /// Install a new policy (staleness budget, batch and burst limits).
    /// The epoch is bumped internally; every periphery adopts it via the
    /// policy block attached to its next ACK.
    pub fn set_policy(&mut self, staleness_budget: u64, max_batch: u32, rate_burst: u32) {
        let mut p = lock(&self.policy);
        p.epoch += 1;
        p.staleness_budget = staleness_budget;
        p.max_batch = max_batch;
        p.rate_burst = rate_burst;
    }

    /// Counters.
    pub fn metrics(&self) -> &FleetMetrics {
        &self.metrics
    }

    /// Visit every tracked host, one shard lock at a time.
    fn each_host(&self, mut f: impl FnMut(u32, &mut HostEntry)) {
        for shard in self.shards.iter() {
            for (hid, host) in lock(shard).hosts.iter_mut() {
                f(*hid, host);
            }
        }
    }

    fn shard_for(&self, host: u32) -> &Mutex<Shard> {
        let h = u64::from(host).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(h & self.mask) as usize]
    }

    /// Advance the controller's staleness clock one aggregation period:
    /// maintain the lease (renew as holder, try to take over as
    /// standby), flag hosts silent past the staleness budget as
    /// partitioned, and take a journal checkpoint when the cadence is
    /// due.
    pub fn advance_tick(&self) {
        let now = self.tick.fetch_add(1, Ordering::AcqRel) + 1;
        self.maintain_lease(now);
        let budget = lock(&self.policy).staleness_budget;
        let mut newly_partitioned = false;
        self.each_host(|_, host| {
            if !host.partitioned && now.saturating_sub(host.last_delta_tick) > budget {
                host.partitioned = true;
                let seq = host.expected_seq;
                host.push_event(now, HostEventKind::Partitioned, seq);
                newly_partitioned = true;
                self.metrics
                    .hosts_partitioned
                    .fetch_add(1, Ordering::Relaxed);
                self.tracer
                    .emit_pipeline(now, None, PipelineEvent::FleetPartitioned);
            }
        });
        if newly_partitioned {
            // One dump per tick no matter how many hosts flipped: the
            // dump's counters already say how many went silent.
            self.record_flight(now, FlightTrigger::Partition);
        }
        self.journal_tick(now);
    }

    /// The controller's journal, once per tick: group-commit (sync),
    /// plus a checkpoint when one is due.
    fn journal_tick(&self, now: u64) {
        let mut journal = lock(&self.journal);
        let Some(js) = journal.as_mut() else {
            return;
        };
        js.journal_mut().set_tick(now);
        let synced = js.journal_mut().sync();
        let due = js.due(now);
        let result = if due {
            let checkpointed = js.checkpoint(&self.index_snapshot(now), now);
            synced.and(checkpointed)
        } else {
            synced
        };
        let edge = self.settle(js, result, due);
        drop(journal);
        if let Some(edge) = edge {
            self.durability_edge(now, edge == Edge::Lost);
        }
    }

    // -----------------------------------------------------------------
    // Leadership
    // -----------------------------------------------------------------

    /// Contend on a shared lease as `holder`, renewing to `now + ttl`
    /// each tick. The first acquisition attempt happens immediately:
    /// win and this controller leads at the lease's epoch; lose and it
    /// becomes a standby that keeps trying every
    /// [`advance_tick`](Self::advance_tick) and promotes only after the
    /// holder's lease expires.
    pub fn attach_lease(&self, store: SharedLease, holder: u32, ttl: u64) {
        let ttl = ttl.max(1);
        let now = self.now_tick();
        let won = store.try_acquire(holder, now, ttl);
        *lock(&self.lease) = Some(LeaseState {
            store,
            holder,
            ttl,
            stalled: false,
        });
        match won {
            Ok(l) => {
                self.ctl_epoch.store(l.epoch, Ordering::Release);
                self.leader.store(true, Ordering::Release);
            }
            Err(e) => {
                if matches!(e, LeaseError::Store(_)) {
                    self.metrics
                        .journal_io_errors
                        .fetch_add(1, Ordering::Relaxed);
                }
                self.leader.store(false, Ordering::Release);
            }
        }
    }

    /// Fault hook: while stalled, this controller cannot reach the
    /// lease store — renewals and takeover attempts silently fail, so a
    /// stalled primary's lease expires under it.
    pub fn set_lease_stalled(&self, stalled: bool) {
        if let Some(ls) = lock(&self.lease).as_mut() {
            ls.stalled = stalled;
        }
    }

    fn maintain_lease(&self, now: u64) {
        let mut lease = lock(&self.lease);
        let Some(ls) = lease.as_mut() else {
            return;
        };
        ls.store.set_tick(now);
        if ls.stalled {
            return;
        }
        let was_leader = self.is_leader();
        // A holder strictly *renews* — a renewal that cannot be
        // persisted (or a lease that lapsed under us) means step down
        // before the TTL rather than risk split-brain on a lease nobody
        // else can read. Only a standby contends via try_acquire.
        let attempt = if was_leader {
            ls.store.renew(ls.holder, now, ls.ttl)
        } else {
            ls.store.try_acquire(ls.holder, now, ls.ttl)
        };
        match attempt {
            Ok(l) => {
                self.ctl_epoch.store(l.epoch, Ordering::Release);
                self.leader.store(true, Ordering::Release);
                drop(lease);
                if !was_leader {
                    self.promote(now);
                }
            }
            Err(e) => {
                self.leader.store(false, Ordering::Release);
                drop(lease);
                if let LeaseError::Store(_) = e {
                    // The lease store itself refused the write: surface
                    // the why on the trace ring and the flight recorder
                    // — this is a durability event, not a lost race.
                    self.metrics
                        .journal_io_errors
                        .fetch_add(1, Ordering::Relaxed);
                    self.tracer
                        .emit_pipeline(now, None, PipelineEvent::DurabilityLost);
                    if was_leader {
                        self.record_flight(now, FlightTrigger::DurabilityLost);
                    }
                }
                if was_leader {
                    self.metrics.demotions.fetch_add(1, Ordering::Relaxed);
                    self.record_flight(now, FlightTrigger::Demotion);
                }
            }
        }
    }

    /// A standby just took over the lease: every replicated host may
    /// lag the dead primary's last accepted frames, so all hosts start
    /// `needs_resync` + partitioned — rollups serve their last-good
    /// contribution (degraded) while FULL snapshots converge them back
    /// to Fresh.
    fn promote(&self, now: u64) {
        let mut flagged = 0u64;
        self.each_host(|_, host| {
            host.needs_resync = true;
            if !host.partitioned {
                host.partitioned = true;
                flagged += 1;
            }
            host.last_delta_tick = now;
            let seq = host.expected_seq;
            host.push_event(now, HostEventKind::Promoted, seq);
        });
        self.metrics
            .hosts_partitioned
            .fetch_add(flagged, Ordering::Relaxed);
        self.metrics.promotions.fetch_add(1, Ordering::Relaxed);
        self.tracer
            .emit_pipeline(now, None, PipelineEvent::FleetPromoted);
        self.record_flight(now, FlightTrigger::Promotion);
    }

    /// Handle one decoded-or-not request frame; `None` means the frame
    /// was malformed (or not a request) and the connection should drop.
    /// Never panics, for any input bytes.
    pub fn handle_frame(&self, payload: &[u8]) -> Option<Vec<u8>> {
        match decode_frame(payload) {
            Some(Frame::Hello(h)) => Some(self.handle_hello(h.host, h.epoch, h.tick)),
            Some(Frame::Delta(d)) => Some(self.handle_delta(d)),
            Some(Frame::Query(q)) => Some(self.handle_query(q)),
            Some(Frame::Policy(p)) => self.handle_policy_push(p),
            Some(Frame::Repl(r)) => Some(self.handle_repl(&r)),
            Some(Frame::Ack(_)) | Some(Frame::Rollup(_)) | None => {
                self.metrics
                    .malformed_frames
                    .fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn ack_for(&self, host: u32, expected_seq: u64, resync: bool, periphery_epoch: u64) -> Vec<u8> {
        let policy = *lock(&self.policy);
        let attach = policy.epoch > periphery_epoch;
        if attach {
            self.metrics.policy_pushes.fetch_add(1, Ordering::Relaxed);
        }
        encode_ack(&Ack {
            host,
            expected_seq,
            ctl_epoch: self.ctl_epoch(),
            resync,
            not_leader: false,
            policy: attach.then_some(policy),
        })
    }

    /// The ACK a non-leader sends back for HELLO/DELTA: nothing was
    /// applied; the periphery should walk its controller list.
    fn not_leader_ack(&self, host: u32, expected_seq: u64) -> Vec<u8> {
        self.metrics
            .not_leader_rejects
            .fetch_add(1, Ordering::Relaxed);
        encode_ack(&Ack {
            host,
            expected_seq,
            ctl_epoch: self.ctl_epoch(),
            resync: false,
            not_leader: true,
            policy: None,
        })
    }

    fn handle_hello(&self, host: u32, epoch: u64, host_tick: u64) -> Vec<u8> {
        self.metrics.hellos.fetch_add(1, Ordering::Relaxed);
        if !self.is_leader() {
            return self.not_leader_ack(host, 0);
        }
        let now = self.now_tick();
        let mut s = lock(self.shard_for(host));
        let entry = s.hosts.entry(host).or_default();
        entry.last_delta_tick = now;
        // Seed the span origin so a hello-only host doesn't report a
        // freshness lag measured from tick zero.
        entry.origin_tick = entry.origin_tick.max(host_tick);
        let seq = entry.expected_seq;
        entry.push_event(now, HostEventKind::Hello, seq);
        let (expected, resync) = (entry.expected_seq, entry.needs_resync);
        drop(s);
        self.ack_for(host, expected, resync, epoch)
    }

    /// An admin-side policy push: adopt a strictly newer policy and echo
    /// the one now in force.
    fn handle_policy_push(&self, p: FleetPolicy) -> Option<Vec<u8>> {
        let mut cur = lock(&self.policy);
        if p.epoch > cur.epoch {
            *cur = p;
        }
        let now = *cur;
        drop(cur);
        Some(encode_policy(&now))
    }

    fn handle_delta(&self, d: Delta) -> Vec<u8> {
        if !self.is_leader() {
            return self.not_leader_ack(d.host, d.seq);
        }
        let now = self.now_tick();
        let host_id = d.host;
        let epoch = d.epoch;
        let mut s = lock(self.shard_for(host_id));
        let Shard { hosts, sums } = &mut *s;
        let host = hosts.entry(host_id).or_default();

        let accept = d.full || (d.seq == host.expected_seq && !host.needs_resync);
        if !accept {
            // A gap (or an unknown mid-stream host): drop the frame's
            // contents — applying out-of-order deltas could double-count
            // — and demand a FULL snapshot, mirroring the watchdog.
            let gap_detected = !host.needs_resync;
            if gap_detected {
                host.needs_resync = true;
                host.push_event(now, HostEventKind::GapResync, d.seq);
                self.metrics
                    .deltas_gap_resyncs
                    .fetch_add(1, Ordering::Relaxed);
                self.tracer
                    .emit_pipeline(now, None, PipelineEvent::FleetGapResync);
            }
            let expected = host.expected_seq;
            drop(s);
            if gap_detected {
                self.record_flight(now, FlightTrigger::GapResync);
            }
            return self.ack_for(host_id, expected, true, epoch);
        }

        let mut journaled_removals: Vec<u32> = Vec::new();
        if d.full {
            // Replace the host's state wholesale; containers absent from
            // the snapshot are removals the journal must also see. The
            // frame is not trusted to be sorted: its ids are, here, so
            // a resync costs O(n log n) under the shard lock whatever
            // the sender packed into it.
            let mut kept: Vec<u32> = d.entries.iter().map(|e| e.id).collect();
            kept.sort_unstable();
            journaled_removals.extend(
                host.containers
                    .keys()
                    .filter(|id| kept.binary_search(id).is_err()),
            );
            journaled_removals.sort_unstable();
            for id in &journaled_removals {
                sums.remove(host, *id);
            }
            host.needs_resync = false;
            host.expected_seq = d.seq + 1;
            self.metrics.full_syncs.fetch_add(1, Ordering::Relaxed);
        } else {
            host.expected_seq += 1;
        }
        for id in &d.removed {
            if sums.remove(host, *id) {
                journaled_removals.push(*id);
            }
        }
        for e in &d.entries {
            sums.upsert(host, *e);
        }
        host.last_delta_tick = now;
        host.host_tick = d.tick;
        host.health = d.health;
        // Track the host's durability ladder: each edge is a causal
        // event, a trace-ring entry, and (for losses) a flight dump.
        let durability_flip = d.durability_lost != host.durability_lost;
        if durability_flip {
            host.durability_lost = d.durability_lost;
            host.push_event(
                now,
                if d.durability_lost {
                    HostEventKind::DurabilityLost
                } else {
                    HostEventKind::DurabilityRestored
                },
                d.seq,
            );
        }
        host.partitioned = false;
        // Fold the causal span in: where this data originated, how far
        // the periphery's trace has advanced, and the end-to-end lag
        // (origin tick → ingest) for the waterfall.
        host.origin_tick = host.origin_tick.max(d.origin_tick);
        host.trace_seq = host.trace_seq.max(d.trace_seq);
        host.summary = d.summary;
        host.waterfall.observe(now.saturating_sub(d.origin_tick));
        host.push_event(
            now,
            if d.full {
                HostEventKind::FullApplied
            } else {
                HostEventKind::DeltaApplied
            },
            d.seq,
        );
        let expected = host.expected_seq;
        drop(s);

        if durability_flip {
            self.durability_edge(now, d.durability_lost);
        }

        self.metrics.deltas_ingested.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .delta_entries
            .fetch_add(d.entries.len() as u64, Ordering::Relaxed);

        // Frame this DELTA's records once; the journal takes them in
        // one write and the REPL outbox keeps the same bytes.
        let frame_into = |out: &mut Vec<u8>| {
            // Packed first, framed second: the encoder's wide loads
            // stall on a state still in flight from the stack it was
            // just packed on (37 against 18 ns a record, measured).
            let states: Vec<ViewState> = d
                .entries
                .iter()
                .filter_map(|e| pack_state(host_id, e))
                .collect();
            let removals = journaled_removals
                .iter()
                .filter_map(|id| pack_id(host_id, *id));
            let mut records = states.len() as u64;
            for packed in removals {
                frame_remove(out, packed);
                records += 1;
            }
            for state in &states {
                frame_delta(out, state, now);
            }
            records
        };
        let mut journal = lock(&self.journal);
        let mut repl = lock(&self.repl);
        let mut batch = Vec::new();
        let records: &[u8] = match repl.as_mut() {
            Some(rs) => {
                rs.heard.insert(host_id);
                let start = rs.outbox.len();
                rs.outbox_records += frame_into(&mut rs.outbox);
                &rs.outbox[start..]
            }
            None if journal.is_some() => {
                frame_into(&mut batch);
                &batch
            }
            None => &[],
        };
        // A batch the store refused means the journal no longer holds
        // everything the live index does; the checkpoint that heals the
        // ladder rebuilds the missing records from the index itself.
        let edge = journal.as_mut().and_then(|js| {
            let result = js.journal_mut().append_framed(records);
            self.settle(js, result, false)
        });
        drop(repl);
        drop(journal);
        if let Some(edge) = edge {
            self.durability_edge(now, edge == Edge::Lost);
        }

        self.ack_for(host_id, expected, false, epoch)
    }

    fn handle_query(&self, q: Query) -> Vec<u8> {
        self.metrics.rollup_queries.fetch_add(1, Ordering::Relaxed);
        let rollup = match q.kind {
            QUERY_CLUSTER => {
                let r = self.cluster_capacity();
                Rollup::Cluster {
                    degraded: r.degraded(),
                    rollup: r,
                }
            }
            QUERY_TENANT => {
                let (r, degraded) = self.tenant_rollup(q.arg);
                Rollup::Tenant {
                    rollup: r,
                    degraded,
                }
            }
            QUERY_TOPK => Rollup::TopK(self.top_pressured(q.arg as usize)),
            QUERY_STATS => Rollup::Stats(self.prometheus_exposition()),
            QUERY_FLIGHT => Rollup::Flight(
                self.flight
                    .get(q.arg as usize)
                    .map(|d| d.encode())
                    .unwrap_or_default(),
            ),
            // decode_frame bounds the kind; unreachable defensively.
            _ => Rollup::TopK(Vec::new()),
        };
        encode_rollup(&RollupFrame {
            ctl_epoch: self.ctl_epoch(),
            span: self.span_stamp(),
            body: rollup,
        })
    }

    /// The causal span stamp for an answer computed right now: the
    /// controller tick, the oldest origin tick still contributing to
    /// the index, and the newest periphery trace sequence ingested.
    pub fn span_stamp(&self) -> SpanStamp {
        let now = self.now_tick();
        let mut origin_min = u64::MAX;
        let mut trace_max = 0u64;
        self.each_host(|_, host| {
            origin_min = origin_min.min(host.origin_tick);
            trace_max = trace_max.max(host.trace_seq);
        });
        SpanStamp {
            as_of_tick: now,
            // No hosts: nothing is stale, the span collapses to now.
            origin_min: if origin_min == u64::MAX {
                now
            } else {
                origin_min
            },
            trace_max,
        }
    }

    /// Per-host freshness lag right now (`now − origin_tick` per host),
    /// sorted by host id — the gauge family the exposition serves and
    /// the ground-truth hook experiments assert against.
    pub fn host_freshness_lags(&self) -> Vec<(u32, u64)> {
        let now = self.now_tick();
        let mut out = Vec::new();
        self.each_host(|hid, host| out.push((hid, now.saturating_sub(host.origin_tick))));
        out.sort_unstable_by_key(|r| r.0);
        out
    }

    /// Why is host `host` stale/partitioned/fenced: its span state,
    /// lag waterfall, and last [`EXPLAIN_EVENTS`] causal events.
    pub fn explain_host(&self, host: u32) -> Option<FleetExplain> {
        let now = self.now_tick();
        let s = lock(self.shard_for(host));
        let h = s.hosts.get(&host)?;
        Some(FleetExplain {
            host,
            health: h.health,
            durability_lost: h.durability_lost,
            partitioned: h.partitioned,
            needs_resync: h.needs_resync,
            expected_seq: h.expected_seq,
            origin_tick: h.origin_tick,
            flush_tick: h.host_tick,
            ingest_tick: h.last_delta_tick,
            trace_seq: h.trace_seq,
            freshness_lag: now.saturating_sub(h.origin_tick),
            containers: h.containers.len() as u64,
            summary: h.summary,
            waterfall: h.waterfall,
            events: h.events.iter().copied().collect(),
        })
    }

    /// Cluster-wide effective capacity: the sum of every container's
    /// effective view across every host, with partitioned hosts'
    /// last-good contribution included but flagged.
    pub fn cluster_capacity(&self) -> ClusterRollup {
        let mut out = ClusterRollup::default();
        for shard in self.shards.iter() {
            let s = lock(shard);
            out.cpu += s.sums.totals.cpu;
            out.mem += s.sums.totals.mem;
            out.avail += s.sums.totals.avail;
            out.containers += s.sums.totals.containers;
            out.hosts += s.hosts.len() as u32;
            out.partitioned += s.hosts.values().filter(|h| h.partitioned).count() as u32;
        }
        out
    }

    /// One tenant's rollup, plus whether any host is partitioned (the
    /// tenant's numbers may then be last-good).
    pub fn tenant_rollup(&self, tenant: u32) -> (TenantRollup, bool) {
        let mut out = TenantRollup::default();
        let mut degraded = false;
        for shard in self.shards.iter() {
            let s = lock(shard);
            if let Some(t) = s.sums.tenants.get(&tenant) {
                out.cpu += t.cpu;
                out.mem += t.mem;
                out.avail += t.avail;
                out.containers += t.containers;
            }
            degraded |= s.hosts.values().any(|h| h.partitioned);
        }
        (out, degraded)
    }

    /// The `k` most memory-pressured containers cluster-wide, most
    /// pressured first (ties broken by host then container id, so the
    /// answer is deterministic).
    pub fn top_pressured(&self, k: usize) -> Vec<PressurePoint> {
        let mut points: Vec<PressurePoint> = Vec::new();
        self.each_host(|hid, host| {
            for e in host.containers.values() {
                let pressure = (e.e_avail.min(e.e_mem) * 1000)
                    .checked_div(e.e_mem)
                    .map_or(0, |served| (1000 - served) as u32);
                points.push(PressurePoint {
                    host: hid,
                    id: e.id,
                    pressure_milli: pressure,
                });
            }
        });
        points.sort_unstable_by(|a, b| {
            b.pressure_milli
                .cmp(&a.pressure_milli)
                .then(a.host.cmp(&b.host))
                .then(a.id.cmp(&b.id))
        });
        points.truncate(k);
        points
    }

    // -----------------------------------------------------------------
    // Journaling and failover
    // -----------------------------------------------------------------

    /// Journal the aggregate state, checkpointing every `every` ticks.
    pub fn enable_journal(&mut self, every: u64) {
        self.enable_journal_with_store(Box::new(MemStore::new()), every);
    }

    /// Journal over a caller-supplied storage backend (e.g. a seeded
    /// `FaultyStore`). The setup may itself fail — the journal then
    /// starts on the degraded rung of the ladder and heals at the first
    /// checkpoint the store accepts.
    pub fn enable_journal_with_store(&mut self, store: Box<dyn Store>, every: u64) {
        let now = self.now_tick();
        let (journal, edge) = DurableJournal::open(store, every, &self.index_snapshot(now));
        self.metrics
            .journal_io_errors
            .fetch_add(journal.io_errors(), Ordering::Relaxed);
        *lock(&self.journal) = Some(journal);
        if let Some(edge) = edge {
            self.durability_edge(now, edge == Edge::Lost);
        }
    }

    /// The journal's current bytes (what a failover peer would replay).
    pub fn journal_bytes(&self) -> Option<Vec<u8>> {
        lock(&self.journal)
            .as_ref()
            .map(|js| js.journal().as_bytes().to_vec())
    }

    /// The journal's *durable* bytes — the synced prefix that survives
    /// a crash under the fsync model.
    pub fn journal_durable_bytes(&self) -> Option<Vec<u8>> {
        lock(&self.journal)
            .as_ref()
            .map(|js| js.journal().durable_bytes().to_vec())
    }

    /// Whether the controller's own journal sits on the degraded rung
    /// of the durability ladder.
    pub fn journal_degraded(&self) -> bool {
        lock(&self.journal).as_ref().is_some_and(|js| js.degraded())
    }

    /// Hosts currently reporting `DurabilityLost` (the Prometheus
    /// `arv_fleet_durability_degraded_hosts` gauge).
    pub fn durability_degraded_hosts(&self) -> u64 {
        let mut lost = 0;
        self.each_host(|_, host| lost += u64::from(host.durability_lost));
        lost
    }

    // -----------------------------------------------------------------
    // Replication
    // -----------------------------------------------------------------

    /// Start streaming accepted records to standbys. The first
    /// [`take_repl_frames`](Self::take_repl_frames) ships a full
    /// checkpoint so a fresh standby aligns without replaying history.
    pub fn enable_replication(&self) {
        let mut repl = lock(&self.repl);
        let rs = repl.get_or_insert_with(ReplState::default);
        rs.send_snapshot = true;
    }

    /// Records queued for standbys but not yet shipped (replication
    /// lag, in records — the failover bench's headline number).
    pub fn repl_backlog_records(&self) -> u64 {
        lock(&self.repl).as_ref().map_or(0, |rs| rs.outbox_records)
    }

    /// Drain the replication outbox into encoded REPL frames, each
    /// under [`MAX_FLEET_FRAME`], chunked at record boundaries. Ship
    /// every frame to every standby; feed their ACKs back through
    /// [`handle_repl_ack`](Self::handle_repl_ack).
    pub fn take_repl_frames(&self) -> Vec<Vec<u8>> {
        let epoch = self.ctl_epoch();
        let now = self.now_tick();
        // index_snapshot takes shard locks while `repl` is held; the
        // standby apply path orders the same way (repl, then shards).
        let mut repl = lock(&self.repl);
        let Some(rs) = repl.as_mut() else {
            return Vec::new();
        };
        if rs.send_snapshot {
            rs.send_snapshot = false;
            rs.outbox.clear();
            frame_checkpoint(&mut rs.outbox, &self.index_snapshot(now));
            rs.outbox_records = 1;
        }
        if rs.outbox.is_empty() && rs.heard.is_empty() {
            return Vec::new();
        }
        let heard: Vec<u32> = std::mem::take(&mut rs.heard).into_iter().collect();
        self.metrics
            .repl_records_streamed
            .fetch_add(std::mem::take(&mut rs.outbox_records), Ordering::Relaxed);
        let budget = (MAX_FLEET_FRAME as usize).saturating_sub(64 + 4 * heard.len());
        let mut frames = Vec::new();
        let mut frame = |heard: &[u32], records: &[u8]| {
            frames.push(encode_repl_parts(epoch, rs.next_seq, now, heard, records));
            rs.next_seq += 1;
        };
        // Chunk at record boundaries, read off the length words.
        let (mut start, mut end) = (0, 0);
        while let Some(len) = framed_len(&rs.outbox[end..]) {
            if end > start && end - start + len > budget {
                frame(&[], &rs.outbox[start..end]);
                start = end;
            }
            end += len;
        }
        // The last frame carries the heard list — alone when every host
        // that reported was quiet.
        frame(&heard, &rs.outbox[start..]);
        rs.outbox.clear();
        frames
    }

    /// Primary side of the replication handshake: fold one standby ACK
    /// back in. A higher epoch in the ACK means a standby was promoted
    /// over us — stand down immediately. A resync flag means the
    /// standby lost sequence — queue a full checkpoint.
    pub fn handle_repl_ack(&self, ack: &Ack) {
        if ack.host != REPL_PEER {
            return;
        }
        if ack.ctl_epoch > self.ctl_epoch() && self.is_leader() && lock(&self.lease).is_some() {
            // Keep our own (stale) epoch: it correctly marks everything
            // we still serve as fenceable.
            self.leader.store(false, Ordering::Release);
            self.metrics.demotions.fetch_add(1, Ordering::Relaxed);
        }
        if ack.resync {
            let mut repl = lock(&self.repl);
            if let Some(rs) = repl.as_mut() {
                if !rs.send_snapshot {
                    rs.send_snapshot = true;
                    self.metrics
                        .repl_gap_snapshots
                        .fetch_add(1, Ordering::Relaxed);
                }
                rs.next_seq = rs.next_seq.max(ack.expected_seq);
            }
        }
    }

    /// Standby side: apply one REPL frame into the live shadow index
    /// and answer with a replication ACK ([`REPL_PEER`] host).
    ///
    /// Stale epochs are fenced — counted, never applied — and the ACK
    /// carries our higher epoch so the deposed sender stands down. A
    /// sequence gap or a torn record stream switches the standby to
    /// demanding a checkpoint; only a checkpoint-led frame realigns it.
    fn handle_repl(&self, r: &Repl) -> Vec<u8> {
        let own = self.ctl_epoch();
        let repl_ack = |expected_seq: u64, epoch: u64, resync: bool| {
            encode_ack(&Ack {
                host: REPL_PEER,
                expected_seq,
                ctl_epoch: epoch,
                resync,
                not_leader: false,
                policy: None,
            })
        };
        if r.ctl_epoch < own {
            self.metrics.repl_fenced.fetch_add(1, Ordering::Relaxed);
            let now = self.now_tick();
            self.tracer
                .emit_pipeline(now, None, PipelineEvent::FleetFenced);
            self.record_flight(now, FlightTrigger::Fence);
            let expected = lock(&self.repl).as_ref().map_or(0, |rs| rs.expected_seq);
            return repl_ack(expected, own, false);
        }
        if r.ctl_epoch > own {
            if self.is_leader() && lock(&self.lease).is_some() {
                self.leader.store(false, Ordering::Release);
                self.metrics.demotions.fetch_add(1, Ordering::Relaxed);
                self.record_flight(self.now_tick(), FlightTrigger::Demotion);
            }
            // Our shadow index now mirrors the higher-epoch primary.
            self.ctl_epoch.store(r.ctl_epoch, Ordering::Release);
        }
        let epoch = self.ctl_epoch();
        let now = self.now_tick();

        let scan = decode_records(&r.records);
        let starts_with_checkpoint = matches!(scan.records.first(), Some(Record::Checkpoint(_)));

        // Lock order matches handle_delta: journal, then repl, then
        // shards (inside apply_record).
        let mut journal = lock(&self.journal);
        let mut repl = lock(&self.repl);
        let rs = repl.get_or_insert_with(ReplState::default);
        let in_order = r.repl_seq == rs.expected_seq && !rs.need_snapshot;
        if !in_order && !starts_with_checkpoint {
            rs.need_snapshot = true;
            let expected = rs.expected_seq;
            drop(repl);
            return repl_ack(expected, epoch, true);
        }
        rs.expected_seq = r.repl_seq + 1;
        rs.need_snapshot = false;
        rs.last_as_of = rs.last_as_of.max(r.as_of_tick);
        self.apply_records(&scan.records, now);
        for host_id in &r.heard {
            if let Some(host) = lock(self.shard_for(*host_id)).hosts.get_mut(host_id) {
                host.last_delta_tick = now;
                host.partitioned = false;
            }
        }
        self.metrics
            .repl_records_applied
            .fetch_add(scan.records.len() as u64, Ordering::Relaxed);

        // Shadow-journal what was applied, so a promoted standby's
        // journal already holds its index. A store error here means the
        // shadow would silently diverge from the live mirror — instead
        // the standby flags its ladder and demands a fresh checkpoint;
        // a checkpoint-led frame that lands cleanly heals the flag.
        let (mut shadow_err, mut edge) = (false, None);
        if let Some(js) = journal.as_mut() {
            js.journal_mut().set_tick(now);
            let verified = &r.records[..scan.verified_len];
            let result = js.shadow(verified, &scan.records, now);
            shadow_err = result.is_err();
            edge = self.settle(js, result, starts_with_checkpoint);
        }
        drop(journal);
        // The valid prefix is applied (prefix-consistent, like the
        // journal); a lost tail forces a checkpoint realign.
        if !shadow_err && scan.truncated > 0 {
            self.metrics.repl_truncated.fetch_add(1, Ordering::Relaxed);
        }
        let resync = shadow_err || scan.truncated > 0;
        rs.need_snapshot = resync;
        let expected = rs.expected_seq;
        drop(repl);
        if let Some(edge) = edge {
            self.durability_edge(now, edge == Edge::Lost);
        }
        repl_ack(expected, epoch, resync)
    }

    /// Fold replicated journal records into the live index, each run of
    /// one host's records under one shard lock.
    fn apply_records(&self, records: &[Record], now: u64) {
        let host_of = |r: &Record| match r {
            Record::Checkpoint(_) => None,
            Record::Delta { state, .. } => Some(state.id >> 16),
            Record::Remove(packed) => Some(packed >> 16),
        };
        let mut rest = records;
        while let Some(first) = rest.first() {
            let host_id = host_of(first);
            let n = match host_id {
                Some(_) => rest.iter().take_while(|r| host_of(r) == host_id).count(),
                None => 1,
            };
            let (run, tail) = rest.split_at(n);
            rest = tail;
            let Some(host_id) = host_id else {
                if let Record::Checkpoint(snap) = first {
                    for shard in self.shards.iter() {
                        *lock(shard) = Shard::default();
                    }
                    self.apply_states(&snap.entries, now);
                }
                continue;
            };
            let mut s = lock(self.shard_for(host_id));
            let Shard { hosts, sums } = &mut *s;
            // A removal alone never makes a host known or fresh.
            let fresh = run.iter().any(|r| matches!(r, Record::Delta { .. }));
            let host = if fresh {
                Some(hosts.entry(host_id).or_default())
            } else {
                hosts.get_mut(&host_id)
            };
            let Some(host) = host else { continue };
            if fresh {
                host.last_delta_tick = now;
                host.partitioned = false;
            }
            for record in run {
                match record {
                    Record::Delta { state, .. } => sums.upsert(host, unpack_state(state)),
                    Record::Remove(packed) => {
                        sums.remove(host, packed & 0xFFFF);
                    }
                    Record::Checkpoint(_) => {}
                }
            }
        }
    }

    /// Upsert packed states into the index, each run of one host's
    /// states under one shard lock, refreshing the host's staleness
    /// clock.
    fn apply_states(&self, states: &[ViewState], now: u64) {
        let mut rest = states;
        while let Some(first) = rest.first() {
            let host_id = first.id >> 16;
            let n = rest.iter().take_while(|e| e.id >> 16 == host_id).count();
            let (run, tail) = rest.split_at(n);
            rest = tail;
            let mut s = lock(self.shard_for(host_id));
            let Shard { hosts, sums } = &mut *s;
            let host = hosts.entry(host_id).or_default();
            host.last_delta_tick = now;
            host.partitioned = false;
            for e in run {
                sums.upsert(host, unpack_state(e));
            }
        }
    }

    /// Build a persistable snapshot of the whole index: ids packed
    /// `host << 16 | container`, tenant in the top 16 bits of
    /// `last_tick` (host ticks never approach 2^48).
    fn index_snapshot(&self, tick: u64) -> Snapshot {
        let mut snap = Snapshot::at(tick);
        self.each_host(|hid, host| {
            let states = host.containers.values();
            snap.entries
                .extend(states.filter_map(|e| pack_state(hid, e)));
        });
        snap.entries.sort_unstable_by_key(|e| e.id);
        snap
    }

    /// Warm-restart a replacement controller from journal bytes
    /// (possibly torn mid-record: `arv_persist::restore` keeps the
    /// longest valid prefix). Every restored host starts partitioned
    /// and `needs_resync` — rollups serve its last-good state flagged
    /// degraded until the host's next delta triggers a FULL resync.
    pub fn restore_from(bytes: &[u8], shards: usize, policy: FleetPolicy) -> FleetController {
        let report = restore(bytes);
        let mut ctl = FleetController::new(shards, policy);
        let Some(snap) = report.snapshot else {
            return ctl;
        };
        ctl.tick = AtomicU64::new(snap.tick);
        ctl.apply_states(&snap.entries, snap.tick);
        let mut partitioned = 0u64;
        ctl.each_host(|_, host| {
            host.partitioned = true;
            host.needs_resync = true;
            partitioned += 1;
        });
        ctl.metrics
            .hosts_partitioned
            .store(partitioned, Ordering::Relaxed);
        ctl
    }

    // -----------------------------------------------------------------
    // Exposition
    // -----------------------------------------------------------------

    /// Prometheus text exposition of the fleet counters, in the same
    /// format (and servable alongside) the viewd metrics. One scrape
    /// exposes the whole fleet: the controller's own counters, per-host
    /// freshness-lag gauges and end-to-end lag waterfalls, and the
    /// periphery counter summaries piggybacked on DELTA frames.
    pub fn prometheus_exposition(&self) -> String {
        let m = self.metrics.snapshot();
        let r = self.cluster_capacity();
        let now = self.now_tick();
        let mut out = PromText::new();
        out.counter(
            "arv_fleet_deltas_ingested",
            "DELTA frames accepted and applied",
            m.deltas_ingested as f64,
        );
        out.counter(
            "arv_fleet_delta_entries",
            "Delta entries applied across all frames",
            m.delta_entries as f64,
        );
        out.counter(
            "arv_fleet_deltas_gap_resyncs",
            "Sequence gaps detected (host flipped into resync)",
            m.deltas_gap_resyncs as f64,
        );
        out.counter(
            "arv_fleet_hosts_partitioned",
            "Transitions of a host into the partitioned state",
            m.hosts_partitioned as f64,
        );
        out.counter(
            "arv_fleet_rollup_queries",
            "Rollup queries answered",
            m.rollup_queries as f64,
        );
        out.counter(
            "arv_fleet_full_syncs",
            "FULL snapshots accepted",
            m.full_syncs as f64,
        );
        out.counter(
            "arv_fleet_malformed_frames",
            "Frames that failed to decode",
            m.malformed_frames as f64,
        );
        out.counter(
            "arv_fleet_policy_pushes",
            "Policy blocks pushed down in ACKs",
            m.policy_pushes as f64,
        );
        out.counter(
            "arv_fleet_failover_promotions",
            "Standby-to-primary promotions (lease takeovers)",
            m.promotions as f64,
        );
        out.counter(
            "arv_fleet_failover_demotions",
            "Primary-to-standby demotions",
            m.demotions as f64,
        );
        out.counter(
            "arv_fleet_failover_repl_records_streamed",
            "Journal records streamed to standbys",
            m.repl_records_streamed as f64,
        );
        out.counter(
            "arv_fleet_failover_repl_records_applied",
            "Replicated records applied into the shadow index",
            m.repl_records_applied as f64,
        );
        out.counter(
            "arv_fleet_failover_fenced",
            "REPL frames fenced for carrying a stale epoch",
            m.repl_fenced as f64,
        );
        out.counter(
            "arv_fleet_failover_gap_snapshots",
            "Full checkpoints queued after a standby REPL gap",
            m.repl_gap_snapshots as f64,
        );
        out.counter(
            "arv_fleet_failover_repl_truncated",
            "REPL frames with a torn or corrupt record stream",
            m.repl_truncated as f64,
        );
        out.counter(
            "arv_fleet_failover_not_leader_rejects",
            "HELLO/DELTA frames rejected for lack of the lease",
            m.not_leader_rejects as f64,
        );
        out.counter(
            "arv_fleet_journal_io_errors",
            "Journal/lease store refusals absorbed by this controller (one per refused batch, sync, checkpoint or lease write)",
            m.journal_io_errors as f64,
        );
        out.gauge(
            "arv_fleet_durability_degraded_hosts",
            "Hosts currently reporting journal durability lost",
            self.durability_degraded_hosts() as f64,
        );
        out.gauge(
            "arv_fleet_journal_degraded",
            "Whether this controller's own journal is on the degraded rung (1) or durable (0)",
            if self.journal_degraded() { 1.0 } else { 0.0 },
        );
        out.gauge(
            "arv_fleet_ctl_epoch",
            "Controller epoch stamped on ACKs and ROLLUPs",
            self.ctl_epoch() as f64,
        );
        out.gauge(
            "arv_fleet_is_leader",
            "Whether this controller holds the lease (1) or stands by (0)",
            if self.is_leader() { 1.0 } else { 0.0 },
        );
        out.gauge("arv_fleet_hosts", "Hosts tracked", f64::from(r.hosts));
        out.gauge(
            "arv_fleet_hosts_partitioned_now",
            "Hosts currently partitioned",
            f64::from(r.partitioned),
        );
        out.gauge(
            "arv_fleet_containers",
            "Containers tracked",
            r.containers as f64,
        );
        out.gauge(
            "arv_fleet_flight_dumps",
            "Flight-recorder dumps frozen so far",
            self.flight.dumps_frozen() as f64,
        );

        // Per-host observability: freshness lags, span coordinates,
        // piggybacked periphery summaries, and the lag waterfalls. Host
        // order is sorted so scrapes are deterministic.
        type HostRow = (u32, u64, u64, u64, bool, bool, HostSummary, LagHistogram);
        let mut hosts: Vec<HostRow> = Vec::new();
        self.each_host(|hid, host| {
            hosts.push((
                hid,
                now.saturating_sub(host.origin_tick),
                host.origin_tick,
                host.trace_seq,
                host.partitioned,
                host.durability_lost,
                host.summary,
                host.waterfall,
            ));
        });
        hosts.sort_unstable_by_key(|h| h.0);
        type Gauge = (&'static str, &'static str, fn(&HostRow) -> f64);
        let gauges: [Gauge; 5] = [
            (
                "arv_fleet_host_freshness_lag_ticks",
                "Per-host end-to-end freshness lag (controller tick minus origin tick)",
                |h| h.1 as f64,
            ),
            (
                "arv_fleet_host_origin_tick",
                "Per-host origin tick of the newest accepted delta",
                |h| h.2 as f64,
            ),
            (
                "arv_fleet_host_trace_seq",
                "Per-host newest periphery trace sequence ingested",
                |h| h.3 as f64,
            ),
            (
                "arv_fleet_host_partitioned",
                "Whether the host is currently partitioned (1) or live (0)",
                |h| f64::from(u8::from(h.4)),
            ),
            (
                "arv_fleet_host_durability_lost",
                "Whether the host's journal has lost durability (1) or is durable (0)",
                |h| f64::from(u8::from(h.5)),
            ),
        ];
        for (name, help, value) in gauges {
            out.header(name, help, "gauge");
            for host in &hosts {
                out.labeled(name, &[("host", host.0.to_string())], value(host));
            }
        }
        out.header(
            "arv_fleet_host_agent",
            "Periphery agent counters piggybacked on DELTA frames",
            "gauge",
        );
        for (hid, _, _, _, _, _, sum, _) in &hosts {
            let host = hid.to_string();
            for (stat, v) in [
                ("frames", sum.frames),
                ("entries", sum.entries),
                ("full_syncs", sum.full_syncs),
                ("resyncs", sum.resyncs),
                ("coalesced", sum.deltas_coalesced),
                ("acks_fenced", sum.acks_fenced),
                ("journal_io_errors", sum.journal_io_errors),
            ] {
                out.labeled(
                    "arv_fleet_host_agent",
                    &[("host", host.clone()), ("stat", stat.to_string())],
                    v as f64,
                );
            }
        }
        out.header(
            "arv_fleet_host_e2e_lag_ticks",
            "Per-host end-to-end lag histogram (origin tick to ingest)",
            "histogram",
        );
        for (hid, _, _, _, _, _, _, wf) in &hosts {
            wf.expose(
                &mut out,
                "arv_fleet_host_e2e_lag_ticks",
                &[("host", hid.to_string())],
            );
        }
        out.finish()
    }
}

/// Lock helper mirroring the rest of the project: a poisoned mutex
/// (panicked peer) still yields the data — counters and index state
/// remain usable for the surviving threads.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::periphery::Periphery;
    use arv_persist::Snapshot as PSnapshot;
    use arv_persist::ViewState as PViewState;

    fn snap(tick: u64, states: &[(u32, u32, u64, u64)]) -> PSnapshot {
        let mut s = PSnapshot::at(tick);
        for (id, cpu, mem, avail) in states {
            s.entries.push(PViewState {
                id: *id,
                e_cpu: *cpu,
                e_mem: *mem,
                e_avail: *avail,
                last_tick: tick,
            });
        }
        s
    }

    /// Pump every queued periphery frame into the controller, feeding
    /// ACKs back.
    fn pump(p: &mut Periphery, ctl: &FleetController) {
        for frame in p.take_frames() {
            if let Some(resp) = ctl.handle_frame(&frame) {
                if let Some(Frame::Ack(ack)) = decode_frame(&resp) {
                    p.handle_ack(&ack);
                }
            }
        }
    }

    #[test]
    fn rollup_equals_ground_truth() {
        let ctl = FleetController::new(4, FleetPolicy::default());
        let mut p1 = Periphery::new(1);
        let mut p2 = Periphery::new(2);
        p1.set_tenant(10, 7);
        p1.observe(&snap(1, &[(10, 4, 1000, 500), (11, 2, 600, 300)]), false, 0);
        p2.observe(&snap(1, &[(10, 8, 2000, 100)]), false, 0);
        pump(&mut p1, &ctl);
        pump(&mut p2, &ctl);

        let r = ctl.cluster_capacity();
        assert_eq!(r.cpu, 14);
        assert_eq!(r.mem, 3600);
        assert_eq!(r.avail, 900);
        assert_eq!(r.hosts, 2);
        assert_eq!(r.containers, 3);
        assert!(!r.degraded());

        let (t, _) = ctl.tenant_rollup(7);
        assert_eq!((t.cpu, t.mem, t.containers), (4, 1000, 1));
        let (t0, _) = ctl.tenant_rollup(0);
        assert_eq!(t0.containers, 2);

        // Host 2's lone container has the least available share.
        let top = ctl.top_pressured(2);
        assert_eq!(top[0].host, 2);
        assert_eq!(top[0].pressure_milli, 950);
    }

    #[test]
    fn incremental_updates_keep_totals_consistent() {
        let ctl = FleetController::new(2, FleetPolicy::default());
        let mut p = Periphery::new(1);
        p.observe(&snap(1, &[(1, 2, 100, 50), (2, 2, 100, 50)]), false, 0);
        pump(&mut p, &ctl);
        p.observe(&snap(2, &[(1, 6, 300, 150)]), false, 0);
        pump(&mut p, &ctl);
        let r = ctl.cluster_capacity();
        assert_eq!((r.cpu, r.mem, r.avail, r.containers), (6, 300, 150, 1));
    }

    #[test]
    fn gap_triggers_resync_and_recovery() {
        let ctl = FleetController::new(2, FleetPolicy::default());
        let mut p = Periphery::new(1);
        p.observe(&snap(1, &[(1, 2, 100, 50)]), false, 0);
        pump(&mut p, &ctl);

        // Lose a frame: the next delta arrives with a gapped sequence.
        p.observe(&snap(2, &[(1, 3, 100, 50)]), false, 0);
        let lost = p.take_frames();
        assert_eq!(lost.len(), 1);

        p.observe(&snap(3, &[(1, 4, 100, 50)]), false, 0);
        pump(&mut p, &ctl); // rejected, resync requested
        assert_eq!(ctl.metrics().snapshot().deltas_gap_resyncs, 1);
        // Stale value still served (last-good).
        assert_eq!(ctl.cluster_capacity().cpu, 2);

        p.observe(&snap(4, &[(1, 5, 100, 50)]), false, 0);
        pump(&mut p, &ctl); // FULL snapshot realigns
        assert_eq!(ctl.cluster_capacity().cpu, 5);
        assert_eq!(ctl.metrics().snapshot().full_syncs, 2);
        assert_eq!(p.stats().resyncs, 1);
    }

    #[test]
    fn silent_host_flagged_partitioned_then_heals() {
        let ctl = FleetController::new(2, FleetPolicy::default());
        let mut p = Periphery::new(1);
        p.observe(&snap(1, &[(1, 2, 100, 50)]), false, 0);
        pump(&mut p, &ctl);
        for _ in 0..5 {
            ctl.advance_tick();
        }
        let r = ctl.cluster_capacity();
        assert_eq!(r.partitioned, 1);
        assert!(r.degraded());
        assert_eq!(r.cpu, 2, "last-good contribution still served");
        assert_eq!(ctl.metrics().snapshot().hosts_partitioned, 1);

        p.observe(&snap(2, &[(1, 3, 100, 50)]), false, 0);
        pump(&mut p, &ctl);
        let r = ctl.cluster_capacity();
        assert_eq!(r.partitioned, 0);
        assert!(!r.degraded());
        assert_eq!(r.cpu, 3);
    }

    #[test]
    fn policy_push_reaches_periphery() {
        let mut ctl = FleetController::new(2, FleetPolicy::default());
        ctl.set_policy(7, 32, 64);
        let mut p = Periphery::new(1);
        p.observe(&snap(1, &[(1, 2, 100, 50)]), false, 0);
        pump(&mut p, &ctl);
        assert_eq!(p.policy().staleness_budget, 7);
        assert_eq!(p.policy().max_batch, 32);
        assert_eq!(p.stats().policy_updates, 1);
        assert!(ctl.metrics().snapshot().policy_pushes >= 1);
    }

    #[test]
    fn journal_restore_is_prefix_consistent_and_resyncs() {
        let mut ctl = FleetController::new(2, FleetPolicy::default());
        ctl.enable_journal(2);
        let mut p = Periphery::new(3);
        p.set_tenant(1, 9);
        p.observe(&snap(1, &[(1, 4, 400, 200), (2, 2, 100, 50)]), false, 0);
        pump(&mut p, &ctl);
        ctl.advance_tick();
        p.observe(&snap(2, &[(1, 6, 400, 200)]), false, 0);
        pump(&mut p, &ctl);

        let bytes = ctl.journal_bytes().expect("journal on");
        let before = ctl.cluster_capacity();

        // Failover: a replacement controller restores the journal.
        let ctl2 = FleetController::restore_from(&bytes, 2, FleetPolicy::default());
        let r = ctl2.cluster_capacity();
        assert_eq!(
            (r.cpu, r.mem, r.containers),
            (before.cpu, before.mem, before.containers)
        );
        assert_eq!(r.partitioned, 1, "restored hosts start last-good");
        let (t, degraded) = ctl2.tenant_rollup(9);
        assert_eq!(t.cpu, 6, "tenant survives failover");
        assert!(degraded);

        // The periphery's next delta is rejected (unknown seq) and the
        // demanded FULL snapshot heals the host to Fresh.
        p.observe(&snap(3, &[(1, 8, 400, 200)]), false, 0);
        pump(&mut p, &ctl2);
        p.observe(&snap(4, &[(1, 8, 400, 200), (2, 2, 100, 50)]), false, 0);
        pump(&mut p, &ctl2);
        let r = ctl2.cluster_capacity();
        assert_eq!(r.partitioned, 0, "resync heals the restored host");
        assert_eq!(r.cpu, 10);
    }

    #[test]
    fn truncated_journal_restores_a_prefix() {
        let mut ctl = FleetController::new(2, FleetPolicy::default());
        ctl.enable_journal(1);
        let mut p = Periphery::new(1);
        p.observe(&snap(1, &[(1, 2, 100, 50)]), false, 0);
        pump(&mut p, &ctl);
        let bytes = ctl.journal_bytes().expect("journal on");
        // Tear the tail mid-record; restore must still see the earlier prefix.
        let torn = &bytes[..bytes.len() - 3];
        let ctl2 = FleetController::restore_from(torn, 2, FleetPolicy::default());
        assert!(ctl2.host_count() <= 1);
    }

    #[test]
    fn a_store_refusing_the_setup_keeps_the_journal_degraded_until_it_recovers() {
        use arv_persist::{FaultyStore, StoreFaults};
        use arv_telemetry::EventKind;
        let mut ctl = FleetController::new(2, FleetPolicy::default());
        let tracer = Tracer::bounded(1024);
        ctl.set_tracer(tracer.clone());
        let full = StoreFaults {
            full_at: Some((0, 50)),
            ..StoreFaults::default()
        };
        ctl.enable_journal_with_store(Box::new(FaultyStore::new(1, full)), 8);
        assert!(ctl.journal_degraded(), "the disk refused the setup");
        let mut p = Periphery::new(1);
        for tick in 1..=60u32 {
            p.observe(
                &snap(u64::from(tick), &[(1, tick % 7 + 1, 100, 50)]),
                false,
                0,
            );
            pump(&mut p, &ctl);
            ctl.advance_tick();
            assert_eq!(ctl.journal_degraded(), tick < 50, "tick {tick}");
        }
        let bytes = ctl.journal_durable_bytes().expect("journal on");
        let restored = restore(&bytes).snapshot.expect("a checkpoint");
        assert_eq!(restored.entries, ctl.index_snapshot(60).entries);
        let edges: Vec<_> = tracer
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Pipeline(ev @ PipelineEvent::DurabilityLost)
                | EventKind::Pipeline(ev @ PipelineEvent::DurabilityRestored) => Some((e.tick, ev)),
                _ => None,
            })
            .collect();
        assert_eq!(
            edges,
            [
                (0, PipelineEvent::DurabilityLost),
                (50, PipelineEvent::DurabilityRestored)
            ]
        );
    }

    #[test]
    fn exposition_names_the_headline_counters() {
        let ctl = FleetController::new(2, FleetPolicy::default());
        ctl.handle_frame(&crate::protocol::encode_query(&Query {
            kind: QUERY_CLUSTER,
            arg: 0,
        }));
        let text = ctl.prometheus_exposition();
        for name in [
            "arv_fleet_deltas_ingested_total",
            "arv_fleet_deltas_gap_resyncs_total",
            "arv_fleet_hosts_partitioned_total",
            "arv_fleet_rollup_queries_total",
        ] {
            assert!(text.contains(name), "missing {name} in exposition");
        }
    }

    #[test]
    fn malformed_frames_never_panic_and_are_counted() {
        let ctl = FleetController::new(2, FleetPolicy::default());
        assert!(ctl.handle_frame(&[]).is_none());
        assert!(ctl.handle_frame(&[0xFF, 1, 2, 3]).is_none());
        let ack = encode_ack(&Ack {
            host: 1,
            expected_seq: 0,
            ctl_epoch: 0,
            resync: false,
            not_leader: false,
            policy: None,
        });
        assert!(ctl.handle_frame(&ack).is_none(), "ACK is not a request");
        assert_eq!(ctl.metrics().snapshot().malformed_frames, 3);
    }

    /// Ship every queued REPL frame from `primary` into `standby`,
    /// feeding replication ACKs back.
    fn pump_repl(primary: &FleetController, standby: &FleetController) {
        for frame in primary.take_repl_frames() {
            if let Some(resp) = standby.handle_frame(&frame) {
                if let Some(Frame::Ack(ack)) = decode_frame(&resp) {
                    primary.handle_repl_ack(&ack);
                }
            }
        }
    }

    #[test]
    fn standby_mirrors_primary_through_repl() {
        let primary = FleetController::new(2, FleetPolicy::default());
        primary.enable_replication();
        let standby = FleetController::new(4, FleetPolicy::default());

        let mut p = Periphery::new(1);
        p.set_tenant(1, 9);
        p.observe(&snap(1, &[(1, 4, 400, 200), (2, 2, 100, 50)]), false, 0);
        pump(&mut p, &primary);
        pump_repl(&primary, &standby);
        assert_eq!(
            standby.cluster_capacity(),
            primary.cluster_capacity(),
            "shadow index matches after initial checkpoint + deltas"
        );

        // Incremental update and a removal (container 2 vanishes).
        p.observe(&snap(2, &[(1, 6, 400, 200)]), false, 0);
        pump(&mut p, &primary);
        pump_repl(&primary, &standby);
        assert_eq!(standby.cluster_capacity(), primary.cluster_capacity());
        let (t, _) = standby.tenant_rollup(9);
        assert_eq!(t.cpu, 6, "tenant totals replicate too");
        assert!(standby.metrics().snapshot().repl_records_applied > 0);
    }

    #[test]
    fn a_quiet_host_stays_live_on_primary_and_standby() {
        let primary = FleetController::new(2, FleetPolicy::default());
        primary.enable_replication();
        let standby = FleetController::new(2, FleetPolicy::default());
        let budget = primary.policy().staleness_budget;
        let mut quiet = Periphery::new(1);
        let mut silent = Periphery::new(2);
        silent.observe(&snap(1, &[(1, 1, 10, 5)]), false, 0);
        pump(&mut silent, &primary);
        let before = primary.metrics().snapshot();
        // Nothing on host 1 moves for three budgets: its per-tick
        // heartbeat — and the REPL frame's heard list — carry its
        // freshness; host 2 says nothing at all.
        for tick in 1..=3 * budget {
            quiet.observe(&snap(tick, &[(1, 2, 100, 50)]), false, 0);
            pump(&mut quiet, &primary);
            pump_repl(&primary, &standby);
            primary.advance_tick();
            standby.advance_tick();
        }
        let after = primary.metrics().snapshot();
        assert_eq!(after.delta_entries - before.delta_entries, 1, "one FULL");
        assert_eq!(after.hosts_partitioned, 1, "only the silent host");
        assert!(primary.explain_host(2).expect("tracked").partitioned);
        for ctl in [&primary, &standby] {
            let host = ctl.explain_host(1).expect("tracked");
            assert!(!host.partitioned, "quiet is not silent");
        }
        assert_eq!(standby.cluster_capacity(), primary.cluster_capacity());
        assert_eq!(standby.cluster_capacity().partitioned, 1);
    }

    #[test]
    fn repl_gap_heals_with_checkpoint() {
        let primary = FleetController::new(2, FleetPolicy::default());
        primary.enable_replication();
        let standby = FleetController::new(2, FleetPolicy::default());
        let mut p = Periphery::new(1);
        p.observe(&snap(1, &[(1, 2, 100, 50)]), false, 0);
        pump(&mut p, &primary);
        pump_repl(&primary, &standby);

        // Lose a whole replication batch on the floor.
        p.observe(&snap(2, &[(1, 5, 100, 50)]), false, 0);
        pump(&mut p, &primary);
        let lost = primary.take_repl_frames();
        assert!(!lost.is_empty(), "the drop must lose real frames");

        // The next batch arrives gapped: rejected, checkpoint demanded,
        // and the following pump realigns the mirror exactly.
        p.observe(&snap(3, &[(1, 7, 100, 50)]), false, 0);
        pump(&mut p, &primary);
        pump_repl(&primary, &standby);
        assert_eq!(standby.metrics().snapshot().repl_gap_snapshots, 0);
        assert_eq!(primary.metrics().snapshot().repl_gap_snapshots, 1);
        pump_repl(&primary, &standby);
        assert_eq!(standby.cluster_capacity(), primary.cluster_capacity());
    }

    #[test]
    fn lease_failover_promotes_standby_and_fences_stale_primary() {
        let lease = SharedLease::new();
        let primary = FleetController::new(2, FleetPolicy::default());
        primary.enable_replication();
        primary.attach_lease(lease.clone(), 1, 2);
        assert!(primary.is_leader());
        assert_eq!(primary.ctl_epoch(), 1);

        let standby = FleetController::new(2, FleetPolicy::default());
        standby.attach_lease(lease.clone(), 2, 2);
        assert!(!standby.is_leader(), "unexpired lease is not reassigned");

        let mut p = Periphery::new(3);
        p.observe(&snap(1, &[(1, 2, 100, 50)]), false, 0);
        pump(&mut p, &primary);
        pump_repl(&primary, &standby);

        // A standby refuses periphery traffic.
        p.observe(&snap(2, &[(1, 3, 100, 50)]), false, 0);
        for frame in p.take_frames() {
            let resp = standby.handle_frame(&frame).expect("standby answers");
            let Some(Frame::Ack(ack)) = decode_frame(&resp) else {
                panic!("expected ACK");
            };
            assert!(ack.not_leader);
        }
        assert!(standby.metrics().snapshot().not_leader_rejects >= 1);

        // The primary stalls (cannot renew); the standby's clock runs
        // past the lease and it takes over at a bumped epoch.
        primary.set_lease_stalled(true);
        for _ in 0..5 {
            standby.advance_tick();
        }
        assert!(standby.is_leader(), "standby promotes after expiry");
        assert_eq!(standby.ctl_epoch(), 2, "takeover bumps the epoch");
        assert_eq!(standby.metrics().snapshot().promotions, 1);
        let r = standby.cluster_capacity();
        assert_eq!(r.partitioned, r.hosts, "promoted hosts start last-good");
        assert_eq!(r.cpu, 2, "last-good contribution still served");

        // The deposed primary's replication stream is fenced, and the
        // fencing ACK demotes it.
        let mut stale = Periphery::new(4);
        stale.observe(&snap(3, &[(9, 1, 10, 5)]), false, 0);
        pump(&mut stale, &primary);
        assert!(primary.is_leader(), "stale primary still thinks it leads");
        pump_repl(&primary, &standby);
        assert!(standby.metrics().snapshot().repl_fenced >= 1);
        assert_eq!(
            standby.cluster_capacity().containers,
            1,
            "fenced records were never applied"
        );
        assert!(!primary.is_leader(), "fencing ACK demotes the old primary");
        assert_eq!(primary.metrics().snapshot().demotions, 1);

        // A FULL resync converges the promoted controller to Fresh.
        p.on_reconnect();
        p.observe(&snap(4, &[(1, 3, 100, 50)]), false, 0);
        pump(&mut p, &standby);
        let r = standby.cluster_capacity();
        assert_eq!(r.partitioned, 0, "resync heals the promoted index");
        assert_eq!(r.cpu, 3);
    }

    #[test]
    fn torn_repl_frames_apply_prefix_and_demand_checkpoint() {
        let primary = FleetController::new(2, FleetPolicy::default());
        primary.enable_replication();
        let standby = FleetController::new(2, FleetPolicy::default());
        let mut p = Periphery::new(1);
        p.observe(&snap(1, &[(1, 2, 100, 50), (2, 4, 200, 100)]), false, 0);
        pump(&mut p, &primary);

        for frame in primary.take_repl_frames() {
            // Tear the tail off every REPL frame.
            let torn = &frame[..frame.len().saturating_sub(3)];
            if let Some(resp) = standby.handle_frame(torn) {
                if let Some(Frame::Ack(ack)) = decode_frame(&resp) {
                    assert!(ack.resync, "torn stream demands a checkpoint");
                    primary.handle_repl_ack(&ack);
                }
            }
        }
        assert!(standby.metrics().snapshot().repl_truncated >= 1);
        // The demanded checkpoint realigns the mirror exactly.
        pump_repl(&primary, &standby);
        assert_eq!(standby.cluster_capacity(), primary.cluster_capacity());
    }

    #[test]
    fn repl_garbage_never_panics_standby() {
        let standby = FleetController::new(2, FleetPolicy::default());
        use crate::protocol::encode_repl_parts;
        for len in [0usize, 1, 7, 64, 300] {
            let frame = encode_repl_parts(0, 0, 0, &[], &vec![0xA5; len]);
            let _ = standby.handle_frame(&frame);
        }
    }

    #[test]
    fn explain_host_traces_span_and_events() {
        let ctl = FleetController::new(2, FleetPolicy::default());
        let mut p = Periphery::new(1);
        p.observe(&snap(1, &[(1, 2, 100, 50)]), false, 0);
        pump(&mut p, &ctl);
        ctl.advance_tick();
        p.observe(&snap(2, &[(1, 3, 100, 50)]), false, 0);
        pump(&mut p, &ctl);

        let ex = ctl.explain_host(1).expect("host tracked");
        assert_eq!(ex.host, 1);
        assert!(!ex.partitioned);
        assert_eq!(ex.origin_tick, 2, "origin follows the newest delta");
        assert_eq!(ex.flush_tick, 2);
        assert_eq!(ex.trace_seq, 2);
        assert_eq!(ex.containers, 1);
        assert_eq!(ex.summary.frames, 2, "piggybacked summary is live");
        assert_eq!(ex.waterfall.total(), 2, "both ingests observed");
        let kinds: Vec<HostEventKind> = ex.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                HostEventKind::Hello,
                HostEventKind::FullApplied,
                HostEventKind::DeltaApplied
            ]
        );
        assert!(ex.render().contains("delta-applied"));
        assert_eq!(ctl.explain_host(99), None);

        // Freshness lags: controller tick 1, origin tick 2 → saturates
        // to 0; advance the clock and the lag grows by exactly one per
        // tick (ground-truth arithmetic).
        for _ in 0..3 {
            ctl.advance_tick();
        }
        let lags = ctl.host_freshness_lags();
        assert_eq!(lags, vec![(1, ctl.now_tick() - 2)]);

        // Silent long enough to partition: the causal ring says why.
        for _ in 0..3 {
            ctl.advance_tick();
        }
        let ex = ctl.explain_host(1).expect("host tracked");
        assert!(ex.partitioned);
        assert_eq!(
            ex.events.last().map(|e| e.kind),
            Some(HostEventKind::Partitioned)
        );
    }

    #[test]
    fn rollups_carry_span_stamps() {
        let ctl = FleetController::new(2, FleetPolicy::default());
        let mut p = Periphery::new(1);
        p.observe(&snap(3, &[(1, 2, 100, 50)]), false, 0);
        pump(&mut p, &ctl);
        for _ in 0..5 {
            ctl.advance_tick();
        }
        let resp = ctl
            .handle_frame(&crate::protocol::encode_query(&Query {
                kind: QUERY_CLUSTER,
                arg: 0,
            }))
            .expect("rollup");
        let Some(Frame::Rollup(frame)) = decode_frame(&resp) else {
            panic!("expected ROLLUP");
        };
        assert_eq!(frame.span.as_of_tick, 5);
        assert_eq!(frame.span.origin_min, 3, "traces back to the host tick");
        assert_eq!(frame.span.trace_max, 1);
        assert_eq!(frame.span.max_lag(), 2);
    }

    #[test]
    fn anomalies_freeze_retrievable_flight_dumps() {
        let mut ctl = FleetController::new(2, FleetPolicy::default());
        ctl.set_tracer(Tracer::bounded(64));
        ctl.set_flight_recorder(FlightRecorder::bounded(4));
        let mut p = Periphery::new(1);
        p.observe(&snap(1, &[(1, 2, 100, 50)]), false, 0);
        pump(&mut p, &ctl);

        // Lose a frame, then deliver the next: a gap-resync dump.
        p.observe(&snap(2, &[(1, 3, 100, 50)]), false, 0);
        p.take_frames();
        p.observe(&snap(3, &[(1, 4, 100, 50)]), false, 0);
        pump(&mut p, &ctl);
        assert_eq!(ctl.flight_recorder().dumps_frozen(), 1);
        let dump = ctl.flight_recorder().latest().expect("dump frozen");
        assert_eq!(dump.trigger, FlightTrigger::GapResync);
        assert!(dump
            .counters
            .iter()
            .any(|(n, v)| n == "deltas_gap_resyncs" && *v == 1));

        // Retrieve it over the query path and check it decodes to the
        // exact same dump.
        let resp = ctl
            .handle_frame(&crate::protocol::encode_query(&Query {
                kind: QUERY_FLIGHT,
                arg: 0,
            }))
            .expect("answered");
        let Some(Frame::Rollup(frame)) = decode_frame(&resp) else {
            panic!("expected ROLLUP");
        };
        let Rollup::Flight(bytes) = frame.body else {
            panic!("expected Flight body");
        };
        let wire_dump = arv_telemetry::FlightDump::decode(&bytes).expect("dump decodes");
        assert_eq!(wire_dump, dump);

        // Asking past the end answers with empty bytes, not an error.
        let resp = ctl
            .handle_frame(&crate::protocol::encode_query(&Query {
                kind: QUERY_FLIGHT,
                arg: 9,
            }))
            .expect("answered");
        let Some(Frame::Rollup(frame)) = decode_frame(&resp) else {
            panic!("expected ROLLUP");
        };
        assert_eq!(frame.body, Rollup::Flight(Vec::new()));
    }
    mod diff_props {
        use super::*;
        use crate::protocol::{encode_delta, encode_repl_parts, HostSummary};
        use crate::reference::{snapshot_of, Index, RecordPrimary, RecordStandby};
        use proptest::prelude::*;

        /// `(cpu, mem, avail, containers)` over `index`, of one tenant
        /// or of all.
        fn sums(index: &Index, tenant: Option<u32>) -> (u64, u64, u64, u64) {
            index
                .values()
                .flat_map(|c| c.values())
                .filter(|e| tenant.map_or(true, |t| e.tenant == t))
                .fold((0, 0, 0, 0), |(c, m, a, n), e| {
                    (c + u64::from(e.e_cpu), m + e.e_mem, a + e.e_avail, n + 1)
                })
        }

        /// `ctl`'s index and running sums are exactly `index`.
        fn assert_mirrors(ctl: &FleetController, index: &Index, hosts: usize) {
            assert_eq!(ctl.index_snapshot(0), snapshot_of(index, 0));
            assert_eq!(ctl.host_count(), hosts);
            let r = ctl.cluster_capacity();
            assert_eq!((r.cpu, r.mem, r.avail, r.containers), sums(index, None));
            for tenant in 0..4 {
                let (t, _) = ctl.tenant_rollup(tenant);
                assert_eq!(
                    (t.cpu, t.mem, t.avail, t.containers),
                    sums(index, Some(tenant)),
                    "tenant {tenant}"
                );
            }
        }

        // More records than one REPL frame holds: both outboxes split
        // at the same record boundaries.
        #[test]
        fn a_backlog_past_one_frame_splits_at_the_same_records() {
            let primary = FleetController::new(2, FleetPolicy::default());
            primary.enable_replication();
            let mut ref_primary = RecordPrimary::new(u64::MAX);
            // The checkpoint that aligns a fresh standby goes first.
            assert_eq!(primary.take_repl_frames(), ref_primary.take_repl_frames());
            for seq in 0..120u64 {
                let d = Delta {
                    host: 1,
                    seq,
                    tick: 0,
                    full: seq == 0,
                    health: 0,
                    durability_lost: false,
                    staleness_age: 0,
                    epoch: 0,
                    origin_tick: 0,
                    trace_seq: seq,
                    summary: HostSummary::default(),
                    entries: (0..200u32)
                        .map(|id| DeltaEntry {
                            id,
                            tenant: 0,
                            e_cpu: 1 + (seq as u32 + id) % 7,
                            e_mem: 100,
                            e_avail: 40,
                            last_tick: seq,
                        })
                        .collect(),
                    removed: vec![200 + seq as u32],
                };
                primary.handle_frame(&encode_delta(&d)).expect("answered");
                assert!(ref_primary.handle_delta(&d));
            }
            assert_eq!(primary.repl_backlog_records(), 24_000);
            let frames = primary.take_repl_frames();
            assert_eq!(frames.len(), 2, "24 000 records of 49 bytes, 1 MiB frames");
            assert!(frames.iter().all(|f| f.len() <= MAX_FLEET_FRAME as usize));
            assert_eq!(frames, ref_primary.take_repl_frames());
            assert_eq!(primary.repl_backlog_records(), 0);
        }

        type Op = (u8, u32, Vec<(u32, u32, u32, u64)>, Vec<u32>, usize);

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            // Arbitrary DELTA streams — upserts, removals, FULLs that
            // leave stale containers behind, gaps, ids too wide to
            // journal — interleaved with ticks and REPL pumps that are
            // whole, torn mid-record or lost: batch framing writes the
            // primary journal, the REPL frames and the shadow journal
            // the record-at-a-time path wrote, byte for byte, and leaves
            // the same indexes and rollups.
            #[test]
            fn batch_framing_equals_the_per_record_path(
                every in 1u64..6,
                ops in prop::collection::vec(
                    (0u8..13, 0u32..3,
                     prop::collection::vec((0u32..10, 0u32..4, 1u32..8, 1u64..5), 0..6),
                     prop::collection::vec(0u32..9, 0..3),
                     1usize..60),
                    1..40),
            ) {
                let mut primary = FleetController::new(2, FleetPolicy::default());
                primary.enable_journal(every);
                primary.enable_replication();
                let mut standby = FleetController::new(4, FleetPolicy::default());
                standby.enable_journal(u64::MAX);
                let mut ref_primary = RecordPrimary::new(every);
                let mut ref_standby = RecordStandby::new();
                let mut seq = [0u64; 3];
                let mut wants_full = [true; 3];
                let ops: Vec<Op> = ops;
                for (kind, host, entries, removed, tear) in ops {
                    match kind {
                        0..=7 => {
                            let h = host as usize;
                            let full = wants_full[h] || kind == 6;
                            // A gap: one sequence number goes missing.
                            seq[h] += u64::from(kind == 7);
                            let d = Delta {
                                host,
                                seq: seq[h],
                                tick: primary.now_tick(),
                                full,
                                health: 0,
                                durability_lost: false,
                                staleness_age: 0,
                                epoch: 0,
                                origin_tick: primary.now_tick(),
                                trace_seq: seq[h],
                                summary: HostSummary::default(),
                                entries: entries
                                    .iter()
                                    .map(|&(id, tenant, e_cpu, mem)| DeltaEntry {
                                        // 9 stands for an id too wide to pack.
                                        id: if id == 9 { 70_000 } else { id },
                                        tenant,
                                        e_cpu,
                                        e_mem: mem * 100,
                                        e_avail: mem * 40,
                                        last_tick: primary.now_tick(),
                                    })
                                    .collect(),
                                removed,
                            };
                            seq[h] += 1;
                            let resp = primary.handle_frame(&encode_delta(&d)).expect("answered");
                            let Some(Frame::Ack(ack)) = decode_frame(&resp) else {
                                panic!("expected ACK");
                            };
                            let accepted = ref_primary.handle_delta(&d);
                            prop_assert_eq!(ack.resync, !accepted);
                            prop_assert_eq!(ack.expected_seq, ref_primary.hosts[&host].expected_seq);
                            wants_full[h] = ack.resync;
                        }
                        8 => {
                            primary.advance_tick();
                            ref_primary.advance_tick();
                        }
                        12 => {
                            // A frame no primary of ours sends, in sequence
                            // for the standby: removals on hosts it may
                            // never have heard of, a checkpoint in
                            // mid-stream, deltas on either side of it.
                            let state = |h: u32, &(id, tenant, e_cpu, mem): &(u32, u32, u32, u64)| {
                                ViewState {
                                    id: (h << 16) | id,
                                    e_cpu,
                                    e_mem: mem * 100,
                                    e_avail: mem * 40,
                                    last_tick: u64::from(tenant) << 48 | 7,
                                }
                            };
                            let (before, after) = entries.split_at(entries.len() / 2);
                            let mut stream: Vec<Record> = Vec::new();
                            for id in &removed {
                                let h = if id % 2 == 0 { host } else { 7 + host };
                                stream.push(Record::Remove((h << 16) | id));
                            }
                            stream.extend(before.iter().map(|e| Record::Delta {
                                state: state(host, e),
                                tick: 2,
                            }));
                            if tear % 2 == 0 {
                                let mut snap = Snapshot::at(3);
                                snap.entries.extend(after.iter().map(|e| state(1, e)));
                                snap.entries.sort_by_key(|e| e.id);
                                snap.entries.dedup_by_key(|e| e.id);
                                stream.push(Record::Checkpoint(snap));
                            }
                            stream.extend(after.iter().map(|e| Record::Delta {
                                state: state(5, e),
                                tick: 4,
                            }));
                            let records: Vec<u8> =
                                stream.iter().flat_map(arv_persist::encode_record).collect();
                            let frame = encode_repl_parts(
                                0,
                                ref_standby.expected_seq,
                                0,
                                &[host],
                                &records,
                            );
                            let want = ref_standby.handle_repl(&frame);
                            let got = standby.handle_frame(&frame).and_then(|resp| {
                                match decode_frame(&resp) {
                                    Some(Frame::Ack(ack)) => Some((ack.expected_seq, ack.resync)),
                                    _ => None,
                                }
                            });
                            prop_assert_eq!(got, want);
                            assert_mirrors(&standby, &ref_standby.index, ref_standby.index.len());
                            prop_assert_eq!(
                                standby.journal_bytes().expect("journal on"),
                                ref_standby.journal.as_bytes()
                            );
                        }
                        _ => {
                            let frames = primary.take_repl_frames();
                            prop_assert_eq!(&frames, &ref_primary.take_repl_frames());
                            // 9 delivers, 10 tears the last frame inside
                            // its records, 11 loses the batch.
                            for (i, frame) in frames.iter().enumerate().filter(|_| kind != 11) {
                                let last = i + 1 == frames.len();
                                let cut = if kind == 10 && last { tear.min(frame.len() / 2) } else { 0 };
                                let frame = &frame[..frame.len() - cut];
                                let want = ref_standby.handle_repl(frame);
                                let got = standby.handle_frame(frame).and_then(|resp| {
                                    match decode_frame(&resp) {
                                        Some(Frame::Ack(ack)) => Some(ack),
                                        _ => None,
                                    }
                                });
                                prop_assert_eq!(got.map(|a| (a.expected_seq, a.resync)), want);
                                if let Some(ack) = got {
                                    primary.handle_repl_ack(&ack);
                                    ref_primary.handle_repl_ack(&ack);
                                }
                            }
                            assert_mirrors(&standby, &ref_standby.index, ref_standby.index.len());
                            prop_assert_eq!(
                                standby.journal_bytes().expect("journal on"),
                                ref_standby.journal.as_bytes()
                            );
                            let m = standby.metrics().snapshot();
                            prop_assert_eq!(m.repl_records_applied, ref_standby.applied);
                            prop_assert_eq!(m.repl_truncated, ref_standby.truncated);
                        }
                    }
                    prop_assert_eq!(
                        primary.journal_bytes().expect("journal on"),
                        ref_primary.journal.as_bytes()
                    );
                }
                assert_mirrors(&primary, &ref_primary.index, ref_primary.hosts.len());
                prop_assert_eq!(
                    primary.metrics().snapshot().repl_records_streamed,
                    ref_primary.streamed
                );
            }
        }
    }

    impl FleetController {
        /// Hosts currently tracked.
        fn host_count(&self) -> usize {
            self.shards.iter().map(|s| lock(s).hosts.len()).sum()
        }
    }

    impl HostEventKind {
        /// Short label used in rendered explanations.
        fn label(self) -> &'static str {
            match self {
                HostEventKind::Hello => "hello",
                HostEventKind::DeltaApplied => "delta-applied",
                HostEventKind::FullApplied => "full-applied",
                HostEventKind::GapResync => "gap-resync",
                HostEventKind::Partitioned => "partitioned",
                HostEventKind::Promoted => "promoted",
                HostEventKind::DurabilityLost => "durability-lost",
                HostEventKind::DurabilityRestored => "durability-restored",
            }
        }
    }

    impl FleetExplain {
        /// Render the explanation as human-readable lines.
        fn render(&self) -> String {
            use std::fmt::Write as _;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "host {}: health={} durability_lost={} partitioned={} needs_resync={} lag={} ticks",
                self.host,
                self.health,
                self.durability_lost,
                self.partitioned,
                self.needs_resync,
                self.freshness_lag
            );
            let _ = writeln!(
                out,
                "  span: origin_tick={} flush_tick={} ingest_tick={} trace_seq={} expected_seq={}",
                self.origin_tick,
                self.flush_tick,
                self.ingest_tick,
                self.trace_seq,
                self.expected_seq
            );
            let _ = writeln!(
                out,
                "  waterfall: n={} sum={} max={} containers={}",
                self.waterfall.total(),
                self.waterfall.sum(),
                self.waterfall.max_lag(),
                self.containers
            );
            for e in &self.events {
                let _ = writeln!(
                    out,
                    "  [tick {:>4}] {} seq={} origin={}",
                    e.tick,
                    e.kind.label(),
                    e.seq,
                    e.origin_tick
                );
            }
            out
        }
    }
}

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
//! # The index
//!
//! A shard's hosts, its per-tenant totals and each host's containers are
//! [`IdMap`]s, the one id-sorted table; a frame looks its host up once,
//! and no record is hashed. Every id keeps its full width. A DELTA on the
//! primary, a journal record on the standby and in
//! [`FleetController::restore_from`] are one *host batch* applied by one
//! function (`Sums::apply`), in one order: a FULL drops the ids absent
//! from it, then the removals are dropped, then the entries are upserted
//! — on every node straight from the bytes it read, DELTA or record, with
//! nothing decoded into a `Vec` first. The entries are one
//! [`IdMap::upsert`]: each is found from a cursor left where the previous
//! one landed ([`IdMap::seek`]) and replaced in place, and new ids that
//! do not extend the host are sorted (of a repeated id the last
//! occurrence wins, the periphery's rule) and merged in one pass. What a
//! run of consecutive same-tenant changes adds and removes — upsert tells
//! each one — is summed apart and folded into the totals with one tenant
//! lookup when the tenant changes or the batch ends. Removals are one
//! pass, each container looked up in a sorted table of their ids, so a
//! frame of k entries into n containers costs O((k + n) log k) at worst,
//! never O(k·n).
//!
//! The journal is an `arv_persist` batch journal: an accepted DELTA is
//! one record, its own tail copied behind its host (see
//! [`crate::protocol`]), and a checkpoint is a reset marker plus one FULL
//! batch per host. The REPL stream carries the very same bytes.
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
    frame_checkpoint, framed_len, journal_records, records, reset_tick, DurableJournal, Edge,
    ForeignJournal, MemStore, Snapshot, Store, StoreError, BATCH_VERSION, KIND_CHECKPOINT,
    KIND_HOST_BATCH,
};
use arv_sim_core::IdMap;
use arv_telemetry::{FlightRecorder, LagHistogram, PipelineEvent, PromText, Tracer};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::protocol::{
    decode_delta_parts, decode_frame, decode_repl_parts, encode_ack, encode_policy,
    encode_repl_parts, encode_rollup, frame_batch, frame_delta_record, Ack, ClusterRollup,
    DeltaEntry, DeltaHead, FleetPolicy, Frame, HostBatch, HostSummary, PressurePoint, Query,
    ReplParts, Rollup, RollupFrame, SpanStamp, Tail, TenantRollup, BATCH_CHECKPOINT, BATCH_FULL,
    MAX_FLEET_FRAME, OP_DELTA, OP_REPL, QUERY_CLUSTER, QUERY_FLIGHT, QUERY_STATS, QUERY_TENANT,
    QUERY_TOPK, REPL_PEER,
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

arv_telemetry::metrics! {
    /// Lock-free counters for the controller. The exposition leads with
    /// the headline ones (`deltas_ingested`, `deltas_gap_resyncs`,
    /// `hosts_partitioned`, `rollup_queries`).
    pub struct FleetMetrics => FleetMetricsSnapshot;
    counters {
        /// DELTA frames accepted and applied.
        deltas_ingested => "arv_fleet_deltas_ingested", "DELTA frames accepted and applied";
        /// Delta entries applied across all accepted frames.
        delta_entries => "arv_fleet_delta_entries", "Delta entries applied across all frames";
        /// Sequence gaps detected (each flips a host into resync).
        deltas_gap_resyncs => "arv_fleet_deltas_gap_resyncs", "Sequence gaps detected (host flipped into resync)";
        /// Transitions of a host into the partitioned state.
        hosts_partitioned => "arv_fleet_hosts_partitioned", "Transitions of a host into the partitioned state";
        /// Rollup queries answered (cluster, tenant, top-k, stats).
        rollup_queries => "arv_fleet_rollup_queries", "Rollup queries answered";
        /// FULL snapshots accepted.
        full_syncs => "arv_fleet_full_syncs", "FULL snapshots accepted";
        /// Frames that failed to decode (connection-fatal for the sender).
        malformed_frames => "arv_fleet_malformed_frames", "Frames that failed to decode";
        /// Policy blocks pushed down in ACKs.
        policy_pushes => "arv_fleet_policy_pushes", "Policy blocks pushed down in ACKs";
        /// HELLO frames answered.
        hellos => "arv_fleet_hellos", "HELLO frames answered";
        /// Standby→primary promotions (lease takeovers).
        promotions => "arv_fleet_failover_promotions", "Standby-to-primary promotions (lease takeovers)";
        /// Primary→standby demotions (lost lease / saw a higher epoch).
        demotions => "arv_fleet_failover_demotions", "Primary-to-standby demotions";
        /// View records streamed out in REPL frames (primary side): entries
        /// upserted plus containers dropped, a checkpoint counting one.
        repl_records_streamed => "arv_fleet_failover_repl_records_streamed", "Journal records streamed to standbys";
        /// View records applied into the shadow index (standby side),
        /// counted alike.
        repl_records_applied => "arv_fleet_failover_repl_records_applied", "Replicated records applied into the shadow index";
        /// REPL frames fenced for carrying a stale controller epoch.
        repl_fenced => "arv_fleet_failover_fenced", "REPL frames fenced for carrying a stale epoch";
        /// Full checkpoints queued because a standby lost REPL sequence.
        repl_gap_snapshots => "arv_fleet_failover_gap_snapshots", "Full checkpoints queued after a standby REPL gap";
        /// REPL frames whose record stream was torn or corrupt (the valid
        /// prefix was applied; a checkpoint was demanded).
        repl_truncated => "arv_fleet_failover_repl_truncated", "REPL frames with a torn or corrupt record stream";
        /// HELLO/DELTA frames rejected because this controller does not
        /// hold the lease.
        not_leader_rejects => "arv_fleet_failover_not_leader_rejects", "HELLO/DELTA frames rejected for lack of the lease";
        /// Journal/lease store errors absorbed by this controller (its own
        /// durability ladder, not the per-host summaries). The unit is one
        /// refused store interaction: a DELTA's record batch, a REPL
        /// frame's shadow write, a tick's sync or checkpoint, or a lease
        /// write — not one per record in a refused batch.
        journal_io_errors => "arv_fleet_journal_io_errors", "Journal/lease store refusals absorbed by this controller (one per refused batch, sync, checkpoint or lease write)";
    }
    histograms {}
}

/// Causal events retained per host for [`FleetController::explain_host`].
pub const EXPLAIN_EVENTS: usize = 16;

/// One entry of a host's causal event ring: what happened, when (in
/// controller ticks), and the span coordinates it happened at. A host's
/// gap, partition, promotion and durability edges name the same
/// [`PipelineEvent`] here, in the trace ring and in the flight dump they
/// freeze.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostCausalEvent {
    /// Controller tick the event was recorded at.
    pub tick: u64,
    /// What happened: a hello, an applied DELTA or FULL, a gap resync,
    /// a partition, a promotion or a durability edge.
    pub kind: PipelineEvent,
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
    /// Live container states by id.
    containers: IdMap<u32, DeltaEntry>,
}

impl HostEntry {
    fn push_event(&mut self, tick: u64, kind: PipelineEvent, seq: u64) {
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

    /// Add `plus`, then take `minus` away: what a tenant run folds in.
    fn fold(&mut self, plus: &Totals, minus: &Totals) {
        self.cpu = self.cpu + plus.cpu - minus.cpu;
        self.mem = self.mem + plus.mem - minus.mem;
        self.avail = self.avail + plus.avail - minus.avail;
        self.containers = self.containers + plus.containers - minus.containers;
    }
}

/// One shard: a slice of the host index plus its running sums — two
/// fields, so a host is updated borrowed in place beside the sums.
#[derive(Debug, Default)]
struct Shard {
    hosts: IdMap<u32, HostEntry>,
    sums: Sums,
}

/// A shard's running totals, overall and per tenant.
#[derive(Debug, Default)]
struct Sums {
    totals: Totals,
    tenants: IdMap<u32, Totals>,
}

/// The one path by which a host's containers change: a host batch, on
/// the primary (a DELTA), on the standby and in a restore (a journal
/// record) alike. Input is never trusted to be sorted.
impl Sums {
    /// Apply one host batch to `host`, in the one order: a FULL drops the
    /// ids absent from `entries`, then the `removed` ids are dropped,
    /// then `entries` are upserted. Returns the view records the batch
    /// is worth: entries upserted plus containers dropped.
    fn apply<E>(
        &mut self,
        host: &mut HostEntry,
        full: bool,
        entries: E,
        removed: impl Iterator<Item = u32>,
    ) -> u64
    where
        E: ExactSizeIterator<Item = DeltaEntry> + Clone,
    {
        let before = host.containers.len();
        let mut run = Run::new(self);
        if full && before > 0 {
            let kept: IdMap<u32, ()> = entries.clone().map(|e| (e.id, ())).collect();
            run.drop_where(host, |id| !kept.contains_key(id));
        }
        let listed: IdMap<u32, ()> = removed.map(|id| (id, ())).collect();
        if !listed.is_empty() {
            run.drop_where(host, |id| listed.contains_key(id));
        }
        let records = entries.len() + before - host.containers.len();
        host.containers.upsert(
            entries,
            |e| (e.id, e),
            |old, new| {
                if let Some(old) = old {
                    run.sub(old);
                }
                run.add(new);
            },
        );
        run.fold();
        records as u64
    }
}

/// One batch's changes to a shard's [`Sums`], gathered a tenant run at a
/// time: what a run of consecutive same-tenant changes adds and takes
/// away is summed here, and folded into the totals and the tenant's
/// entry — one tenant lookup — when the tenant changes or the batch
/// ends. A periphery's batch is in id order, and a tenant's containers
/// tend to sit together, so a batch costs a lookup a run, not one an
/// entry.
struct Run<'s> {
    sums: &'s mut Sums,
    tenant: u32,
    plus: Totals,
    minus: Totals,
}

impl<'s> Run<'s> {
    fn new(sums: &'s mut Sums) -> Run<'s> {
        Run {
            sums,
            tenant: 0,
            plus: Totals::default(),
            minus: Totals::default(),
        }
    }

    /// The run for `tenant`: the current one, or a new one once the
    /// current is folded in.
    fn enter(&mut self, tenant: u32) {
        if tenant != self.tenant {
            self.fold();
            self.tenant = tenant;
        }
    }

    fn add(&mut self, e: &DeltaEntry) {
        self.enter(e.tenant);
        self.plus.add(e);
    }

    fn sub(&mut self, e: &DeltaEntry) {
        self.enter(e.tenant);
        self.minus.add(e);
    }

    /// Fold the current run into the sums, and start it empty.
    fn fold(&mut self) {
        if self.plus.containers == 0 && self.minus.containers == 0 {
            return;
        }
        let (plus, minus) = (
            std::mem::take(&mut self.plus),
            std::mem::take(&mut self.minus),
        );
        self.sums.totals.fold(&plus, &minus);
        let tenant = self.sums.tenants.entry(self.tenant).or_default();
        tenant.fold(&plus, &minus);
    }

    /// Drop every container of `host` whose id `gone` holds, in one pass.
    fn drop_where(&mut self, host: &mut HostEntry, gone: impl Fn(&u32) -> bool) {
        host.containers.retain(|id, e| {
            let drop = gone(id);
            if drop {
                self.sub(e);
            }
            !drop
        });
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
    heard: IdMap<u32, ()>,
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
    /// promotion, demotion, fence, durability edges) into a trace ring.
    /// Call before sharing the controller.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attach a flight recorder: anomalies (gap resync, fence,
    /// promotion, demotion, partition, durability edges) freeze the
    /// tracer's recent events, their own trigger event among them, plus
    /// a counter snapshot into retrievable dumps. Call before sharing the
    /// controller.
    pub fn set_flight_recorder(&mut self, flight: FlightRecorder) {
        self.flight = flight;
    }

    /// The attached flight recorder (disabled unless
    /// [`set_flight_recorder`](Self::set_flight_recorder) was called).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Freeze a flight dump around an anomaly whose `trigger` event the
    /// trace ring already holds: the ring as it stands plus every
    /// counter and the epoch. No-op when disabled.
    fn freeze(&self, now: u64, trigger: PipelineEvent) {
        if !self.flight.is_enabled() {
            return;
        }
        let mut counters = self.metrics.snapshot().counters();
        counters.push(("ctl_epoch", self.ctl_epoch()));
        self.flight.record(now, trigger, &self.tracer, &counters);
    }

    /// Record an anomaly: its event into the trace ring, then the flight
    /// dump it freezes.
    fn anomaly(&self, now: u64, event: PipelineEvent) {
        self.tracer.emit_pipeline(now, None, event);
        self.freeze(now, event);
    }

    /// Record an edge of a durability ladder — this controller's own or
    /// a host's — as an anomaly.
    fn durability_edge(&self, now: u64, lost: bool) {
        self.anomaly(now, durability_event(lost));
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
                host.push_event(now, PipelineEvent::FleetPartitioned, seq);
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
            self.freeze(now, PipelineEvent::FleetPartitioned);
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
            let mut records = Vec::new();
            self.checkpoint_records(now, &mut records);
            synced.and(js.compact(&records, now))
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
                    // the why on the trace ring and, for a stepping-down
                    // leader, the flight recorder — this is a durability
                    // event, not a lost race.
                    self.metrics
                        .journal_io_errors
                        .fetch_add(1, Ordering::Relaxed);
                    self.tracer
                        .emit_pipeline(now, None, PipelineEvent::DurabilityLost);
                    if was_leader {
                        self.freeze(now, PipelineEvent::DurabilityLost);
                    }
                }
                if was_leader {
                    self.metrics.demotions.fetch_add(1, Ordering::Relaxed);
                    self.anomaly(now, PipelineEvent::FleetDemoted);
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
            host.push_event(now, PipelineEvent::FleetPromoted, seq);
        });
        self.metrics
            .hosts_partitioned
            .fetch_add(flagged, Ordering::Relaxed);
        self.metrics.promotions.fetch_add(1, Ordering::Relaxed);
        self.anomaly(now, PipelineEvent::FleetPromoted);
    }

    /// Handle one decoded-or-not request frame; `None` means the frame
    /// was malformed (or not a request) and the connection should drop.
    /// Never panics, for any input bytes.
    ///
    /// A DELTA and a REPL frame are applied from `payload` in place: the
    /// index, the journal and the REPL outbox read their bytes where the
    /// transport left them.
    pub fn handle_frame(&self, payload: &[u8]) -> Option<Vec<u8>> {
        let reply = match payload.first() {
            Some(&OP_DELTA) => decode_delta_parts(payload)
                .map(|(head, tail)| self.handle_delta(&head, tail, payload)),
            Some(&OP_REPL) => decode_repl_parts(payload).map(|r| self.handle_repl(&r)),
            _ => match decode_frame(payload) {
                Some(Frame::Hello(h)) => Some(self.handle_hello(h.host, h.epoch, h.tick)),
                Some(Frame::Query(q)) => Some(self.handle_query(q)),
                Some(Frame::Policy(p)) => Some(self.handle_policy_push(p)),
                _ => None,
            },
        };
        if reply.is_none() {
            self.metrics
                .malformed_frames
                .fetch_add(1, Ordering::Relaxed);
        }
        reply
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
        entry.push_event(now, PipelineEvent::FleetHello, seq);
        let (expected, resync) = (entry.expected_seq, entry.needs_resync);
        drop(s);
        self.ack_for(host, expected, resync, epoch)
    }

    /// An admin-side policy push: adopt a strictly newer policy and echo
    /// the one now in force.
    fn handle_policy_push(&self, p: FleetPolicy) -> Vec<u8> {
        let mut cur = lock(&self.policy);
        if p.epoch > cur.epoch {
            *cur = p;
        }
        let now = *cur;
        drop(cur);
        encode_policy(&now)
    }

    /// Apply one DELTA, its `head` decoded and its `tail` borrowed from
    /// `payload`, from which its journal record is copied.
    fn handle_delta(&self, d: &DeltaHead, tail: Tail<'_>, payload: &[u8]) -> Vec<u8> {
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
                host.push_event(now, PipelineEvent::FleetGapResync, d.seq);
                self.metrics
                    .deltas_gap_resyncs
                    .fetch_add(1, Ordering::Relaxed);
            }
            let expected = host.expected_seq;
            drop(s);
            if gap_detected {
                self.anomaly(now, PipelineEvent::FleetGapResync);
            }
            return self.ack_for(host_id, expected, true, epoch);
        }

        if d.full {
            host.needs_resync = false;
            host.expected_seq = d.seq + 1;
            self.metrics.full_syncs.fetch_add(1, Ordering::Relaxed);
        } else {
            host.expected_seq += 1;
        }
        let records = sums.apply(host, d.full, tail.entries(), tail.removed());
        host.last_delta_tick = now;
        host.host_tick = d.tick;
        host.health = d.health;
        // Track the host's durability ladder: each edge is a causal
        // event, a trace-ring entry, and (for losses) a flight dump.
        let durability_flip = d.durability_lost != host.durability_lost;
        if durability_flip {
            host.durability_lost = d.durability_lost;
            host.push_event(now, durability_event(d.durability_lost), d.seq);
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
                PipelineEvent::FleetFullApplied
            } else {
                PipelineEvent::FleetDeltaApplied
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
            .fetch_add(tail.entries().len() as u64, Ordering::Relaxed);

        // One record per DELTA that moves anything: its tail copied
        // behind its host. The journal takes it in one write and the
        // REPL outbox keeps the same bytes.
        let moves = d.full || !tail.is_empty();
        let mut journal = lock(&self.journal);
        let mut repl = lock(&self.repl);
        let mut own = Vec::new();
        let record: &[u8] = match repl.as_mut() {
            Some(rs) => {
                rs.heard.insert(host_id, ());
                rs.outbox_records += records;
                let start = rs.outbox.len();
                if moves {
                    frame_delta_record(&mut rs.outbox, payload);
                }
                &rs.outbox[start..]
            }
            None if journal.is_some() && moves => {
                frame_delta_record(&mut own, payload);
                &own
            }
            None => &[],
        };
        // A record the store refused means the journal no longer holds
        // everything the live index does; the checkpoint that heals the
        // ladder rebuilds the missing records from the index itself.
        let edge = journal.as_mut().and_then(|js| {
            let result = js.journal_mut().append_framed(record);
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
        let mut seed = Vec::new();
        self.checkpoint_records(now, &mut seed);
        let (journal, edge) = DurableJournal::open_batch(store, every, now, &seed);
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

    /// View records queued for standbys but not yet shipped (replication
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
        // checkpoint_records takes shard locks while `repl` is held; the
        // standby apply path orders the same way (repl, then shards).
        let mut repl = lock(&self.repl);
        let Some(rs) = repl.as_mut() else {
            return Vec::new();
        };
        if rs.send_snapshot {
            rs.send_snapshot = false;
            rs.outbox.clear();
            self.checkpoint_records(now, &mut rs.outbox);
            rs.outbox_records = 1;
        }
        if rs.outbox.is_empty() && rs.heard.is_empty() {
            return Vec::new();
        }
        let heard = rs.heard.keys().as_slice();
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
        // that reported was quiet, or when the heard list leaves the last
        // record no room.
        if rs.outbox.len() - start > budget {
            frame(&[], &rs.outbox[start..]);
            start = rs.outbox.len();
        }
        frame(heard, &rs.outbox[start..]);
        rs.outbox.clear();
        rs.heard.clear();
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
    fn handle_repl(&self, r: &ReplParts<'_>) -> Vec<u8> {
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
            self.anomaly(now, PipelineEvent::FleetFenced);
            let expected = lock(&self.repl).as_ref().map_or(0, |rs| rs.expected_seq);
            return repl_ack(expected, own, false);
        }
        if r.ctl_epoch > own {
            if self.is_leader() && lock(&self.lease).is_some() {
                self.leader.store(false, Ordering::Release);
                self.metrics.demotions.fetch_add(1, Ordering::Relaxed);
                self.anomaly(self.now_tick(), PipelineEvent::FleetDemoted);
            }
            // Our shadow index now mirrors the higher-epoch primary.
            self.ctl_epoch.store(r.ctl_epoch, Ordering::Release);
        }
        let epoch = self.ctl_epoch();
        let now = self.now_tick();

        // Peek at the first record: only a checkpoint-led frame realigns
        // a standby that lost sequence.
        let mut walk = records(r.records);
        let starts_with_checkpoint =
            walk.clone().next().map(|(kind, _)| kind) == Some(KIND_CHECKPOINT);

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
        // Records apply straight from the frame's bytes, in stream order,
        // up to the first that is torn, corrupt or not understood.
        let (mut applied, mut verified, mut understood) = (0, 0, true);
        while let Some((kind, body)) = walk.next() {
            let Some(records) = self.apply_record(kind, body, now) else {
                understood = false;
                break;
            };
            applied += records;
            verified = walk.verified_len();
        }
        for host_id in r.heard() {
            if let Some(host) = lock(self.shard_for(host_id)).hosts.get_mut(&host_id) {
                host.last_delta_tick = now;
                host.partitioned = false;
            }
        }
        self.metrics
            .repl_records_applied
            .fetch_add(applied, Ordering::Relaxed);

        // Shadow-journal what was applied, so a promoted standby's
        // journal already holds its index. A store error here means the
        // shadow would silently diverge from the live mirror — instead
        // the standby flags its ladder and demands a fresh checkpoint;
        // a checkpoint-led frame that lands cleanly heals the flag.
        let (mut shadow_err, mut edge) = (false, None);
        if let Some(js) = journal.as_mut() {
            js.journal_mut().set_tick(now);
            let result = js.shadow(&r.records[..verified], now);
            shadow_err = result.is_err();
            edge = self.settle(js, result, starts_with_checkpoint);
        }
        drop(journal);
        // The valid prefix is applied (prefix-consistent, like the
        // journal); a lost tail forces a checkpoint realign.
        let truncated = walk.torn() || !understood;
        if !shadow_err && truncated {
            self.metrics.repl_truncated.fetch_add(1, Ordering::Relaxed);
        }
        let resync = shadow_err || truncated;
        rs.need_snapshot = resync;
        let expected = rs.expected_seq;
        drop(repl);
        if let Some(edge) = edge {
            self.durability_edge(now, edge == Edge::Lost);
        }
        repl_ack(expected, epoch, resync)
    }

    /// Apply one record of the controller's journal — a reset marker
    /// empties the index, a host batch goes through `Sums::apply` and
    /// makes its host known and fresh at `now` — and return the view
    /// records it is worth (a checkpoint counts one, its host batches
    /// none). `None` for a record that is not one of the two.
    fn apply_record(&self, kind: u8, body: &[u8], now: u64) -> Option<u64> {
        match kind {
            KIND_CHECKPOINT => {
                reset_tick(body)?;
                for shard in self.shards.iter() {
                    *lock(shard) = Shard::default();
                }
                Some(1)
            }
            KIND_HOST_BATCH => {
                let batch = HostBatch::decode(body)?;
                let mut s = lock(self.shard_for(batch.host));
                let Shard { hosts, sums } = &mut *s;
                let host = hosts.entry(batch.host).or_default();
                host.last_delta_tick = now;
                host.partitioned = false;
                let records = sums.apply(
                    host,
                    batch.flags & BATCH_FULL != 0,
                    batch.tail.entries(),
                    batch.tail.removed(),
                );
                Some(if batch.flags & BATCH_CHECKPOINT != 0 {
                    0
                } else {
                    records
                })
            }
            _ => None,
        }
    }

    /// Append the index to `out` as checkpoint records: a reset marker
    /// at `tick`, then every host that holds containers, in host-id
    /// order, chunked the way a periphery chunks a FULL — `max_batch`
    /// containers a batch (at most
    /// [`MAX_BATCH`](crate::protocol::MAX_BATCH)), the first one FULL —
    /// so no record outgrows a REPL frame. Each host's run is already in
    /// id order; only the host ids are sorted, under every shard lock at
    /// once.
    fn checkpoint_records(&self, tick: u64, out: &mut Vec<u8>) {
        let chunk = self.policy().batch_len();
        frame_checkpoint(out, &Snapshot::at(tick));
        let shards: Vec<_> = self.shards.iter().map(lock).collect();
        let mut hosts: Vec<(u32, &HostEntry)> = shards
            .iter()
            .flat_map(|s| s.hosts.iter().map(|(hid, host)| (*hid, host)))
            .filter(|(_, host)| !host.containers.is_empty())
            .collect();
        hosts.sort_unstable_by_key(|h| h.0);
        for (hid, host) in hosts {
            for (i, part) in host
                .containers
                .values()
                .as_slice()
                .chunks(chunk)
                .enumerate()
            {
                let full = if i == 0 { BATCH_FULL } else { 0 };
                frame_batch(out, hid, BATCH_CHECKPOINT | full, part);
            }
        }
    }

    /// Warm-restart a replacement controller from journal bytes
    /// (possibly torn mid-record: the longest valid prefix is replayed,
    /// from its last checkpoint, through the path a standby applies
    /// REPL records by). Every restored host starts partitioned and
    /// `needs_resync` — rollups serve its last-good state flagged
    /// degraded until the host's next delta triggers a FULL resync.
    /// Bytes that are not a controller journal are refused whole.
    pub fn restore_from(
        bytes: &[u8],
        shards: usize,
        policy: FleetPolicy,
    ) -> Result<FleetController, ForeignJournal> {
        let walk = journal_records(bytes, BATCH_VERSION)?;
        let ctl = FleetController::new(shards, policy);
        let mut tick = None;
        for (kind, body) in walk {
            // Records before the first checkpoint have no base to apply to.
            if kind == KIND_CHECKPOINT {
                let Some(at) = reset_tick(body) else { break };
                tick = Some(at);
            }
            let Some(now) = tick else { continue };
            if ctl.apply_record(kind, body, now).is_none() {
                break;
            }
        }
        let Some(tick) = tick else {
            return Ok(ctl);
        };
        ctl.tick.store(tick, Ordering::Release);
        let mut partitioned = 0u64;
        ctl.each_host(|_, host| {
            host.partitioned = true;
            host.needs_resync = true;
            partitioned += 1;
        });
        ctl.metrics
            .hosts_partitioned
            .store(partitioned, Ordering::Relaxed);
        Ok(ctl)
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
        let r = self.cluster_capacity();
        let now = self.now_tick();
        let mut out = PromText::new();
        self.metrics.snapshot().expose(&mut out);
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

/// The event naming a durability ladder's edge: lost, or restored.
fn durability_event(lost: bool) -> PipelineEvent {
    if lost {
        PipelineEvent::DurabilityLost
    } else {
        PipelineEvent::DurabilityRestored
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
    use crate::protocol::{
        encode_delta, encode_hello, Delta, Hello, BATCH_HEAD_BYTES, ENTRY_BYTES, MAX_BATCH,
        REPL_HEAD_BYTES,
    };
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
        let ctl2 = FleetController::restore_from(&bytes, 2, FleetPolicy::default())
            .expect("a controller journal");
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
        let ctl2 = FleetController::restore_from(torn, 2, FleetPolicy::default())
            .expect("a controller journal");
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
        let restored = FleetController::restore_from(&bytes, 2, FleetPolicy::default())
            .expect("a controller journal");
        assert_eq!(restored.contents(), ctl.contents());
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
            "arv_fleet_hellos_total",
        ] {
            assert!(text.contains(name), "missing {name} in exposition");
        }
        // Every declared counter is served, each family exactly once.
        let snap = ctl.metrics().snapshot();
        let mut declared = PromText::new();
        snap.expose(&mut declared);
        let declared = declared.finish();
        let types: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        let families: Vec<&str> = declared
            .lines()
            .filter(|l| l.starts_with("# TYPE "))
            .collect();
        assert_eq!(families.len(), snap.counters().len());
        for family in families {
            let served = types.iter().filter(|l| **l == family).count();
            assert_eq!(served, 1, "{family} served {served} times");
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

    fn full_delta(host: u32, entries: Vec<DeltaEntry>) -> Delta {
        Delta {
            head: DeltaHead {
                host,
                seq: 0,
                tick: 1,
                full: true,
                health: 0,
                durability_lost: false,
                epoch: 0,
                origin_tick: 1,
                trace_seq: 1,
                summary: HostSummary::default(),
            },
            entries,
            removed: Vec::new(),
        }
    }

    fn entry(id: u32, tenant: u32, e_cpu: u32) -> DeltaEntry {
        DeltaEntry {
            id,
            tenant,
            e_cpu,
            e_mem: 100,
            e_avail: 50,
        }
    }

    /// Send `d` to `ctl` and expect an in-order ACK.
    fn accepted(ctl: &FleetController, d: &Delta) {
        let resp = ctl.handle_frame(&encode_delta(d)).expect("answered");
        assert!(matches!(decode_frame(&resp), Some(Frame::Ack(a)) if !a.resync));
    }

    #[test]
    fn a_wide_id_never_splits_primary_from_standby() {
        let mut primary = FleetController::new(2, FleetPolicy::default());
        primary.enable_journal(64);
        primary.enable_replication();
        let standby = FleetController::new(2, FleetPolicy::default());
        // Container, tenant and host all past the 16 bits a journal
        // record once packed each into.
        let wide = 70_000;
        accepted(
            &primary,
            &full_delta(wide, vec![entry(1, 0, 4), entry(wide, wide, 3)]),
        );
        pump_repl(&primary, &standby);
        let restored = FleetController::restore_from(
            &primary.journal_bytes().expect("journal on"),
            2,
            FleetPolicy::default(),
        )
        .expect("a controller journal");
        let r = primary.cluster_capacity();
        assert_eq!((r.hosts, r.cpu, r.containers), (1, 7, 2));
        assert_eq!(standby.cluster_capacity(), r);
        assert_eq!(primary.tenant_rollup(wide).0.cpu, 3);
        for ctl in [&standby, &restored] {
            assert_eq!(ctl.tenant_rollup(wide).0, primary.tenant_rollup(wide).0);
            assert_eq!(ctl.top_pressured(9), primary.top_pressured(9));
            assert_eq!(ctl.contents(), primary.contents());
        }
        assert_eq!(restored.cluster_capacity().containers, 2);
        assert_eq!(
            restored.cluster_capacity().partitioned,
            1,
            "restored last-good"
        );
    }

    #[test]
    fn a_fleet_past_32_767_containers_restores_and_aligns_a_standby() {
        const HOSTS: u32 = 40;
        const CONTAINERS: u32 = 1_000;
        let mut primary = FleetController::new(8, FleetPolicy::default());
        primary.enable_journal(1);
        for host in 0..HOSTS {
            let entries = (0..CONTAINERS).map(|id| entry(id, host % 3, 1 + id % 4));
            accepted(&primary, &full_delta(host, entries.collect()));
        }
        primary.advance_tick(); // a checkpoint of all 40 000
                                // A fresh standby aligns through a checkpoint of the same index.
        primary.enable_replication();
        let standby = FleetController::new(4, FleetPolicy::default());
        let frames = primary.take_repl_frames();
        assert!(frames.len() >= 2, "one checkpoint, several frames");
        for frame in &frames {
            assert!(
                frame.len() <= MAX_FLEET_FRAME as usize,
                "{} bytes",
                frame.len()
            );
            let resp = standby.handle_frame(frame).expect("answered");
            assert!(matches!(decode_frame(&resp), Some(Frame::Ack(a)) if !a.resync));
        }
        let want = u64::from(HOSTS * CONTAINERS);
        assert_eq!(primary.cluster_capacity().containers, want);
        assert_eq!(standby.cluster_capacity(), primary.cluster_capacity());
        assert_eq!(standby.contents(), primary.contents());
        let restored = FleetController::restore_from(
            &primary.journal_bytes().expect("journal on"),
            2,
            FleetPolicy::default(),
        )
        .expect("a controller journal");
        assert_eq!(restored.cluster_capacity().containers, want);
        assert_eq!(restored.contents(), primary.contents());
        assert_eq!(primary.metrics().snapshot().repl_records_streamed, 1);
        assert_eq!(standby.metrics().snapshot().repl_records_applied, 1);
    }

    /// Records that fill a REPL frame all but its heard list: one-entry
    /// DELTAs from 30 hosts, then host 0's DELTAs of at most `MAX_BATCH`
    /// entries, the last sized so that every record fits one frame only
    /// if the heard list takes no room. The records split over two
    /// frames, the heard list rides the last beside its records, every
    /// frame fits, and the standby mirrors the primary.
    #[test]
    fn records_that_fill_a_frame_leave_room_for_the_heard_list() {
        let primary = FleetController::new(2, FleetPolicy::default());
        primary.enable_replication();
        let standby = FleetController::new(2, FleetPolicy::default());
        pump_repl(&primary, &standby);
        for host in 1..=30 {
            accepted(&primary, &full_delta(host, vec![entry(1, 0, 1)]));
        }
        // A record of n entries: length word, kind, host batch, CRC.
        let record = |n: u32| 4 + 1 + BATCH_HEAD_BYTES + 4 + n as usize * ENTRY_BYTES + 4 + 4;
        // What a frame holds of records, its REPL head and 64 bytes of
        // slack taken: the heard list must come out of it.
        let room = MAX_FLEET_FRAME as usize - 64;
        let mut filled = 30 * record(1);
        let (mut seq, mut next) = (0, 0);
        let mut send = |n: u32| {
            let mut d = full_delta(0, (next..next + n).map(|id| entry(id, 0, 1)).collect());
            (d.head.seq, d.head.full) = (seq, seq == 0);
            accepted(&primary, &d);
            (seq, next) = (seq + 1, next + n);
            record(n)
        };
        while filled + record(MAX_BATCH) <= room {
            filled += send(MAX_BATCH);
        }
        filled += send(((room - filled - record(0)) / ENTRY_BYTES) as u32);
        assert!(
            REPL_HEAD_BYTES + 4 * 31 + filled > MAX_FLEET_FRAME as usize,
            "every record and the heard list would fit one frame"
        );
        let frames = primary.take_repl_frames();
        assert_eq!(frames.len(), 2);
        for frame in &frames {
            assert!(
                frame.len() <= MAX_FLEET_FRAME as usize,
                "a {}-byte frame no standby takes",
                frame.len()
            );
            let resp = standby.handle_frame(frame).expect("answered");
            assert!(matches!(decode_frame(&resp), Some(Frame::Ack(a)) if !a.resync));
        }
        let last = frames.last().and_then(|f| decode_frame(f));
        assert!(
            matches!(last, Some(Frame::Repl(r)) if !r.records.is_empty() && r.heard.len() == 31)
        );
        assert_eq!(standby.contents(), primary.contents());
    }

    /// No periphery sends more than `MAX_BATCH` entries or removals in a
    /// DELTA: one that claims more is refused whole — counted malformed,
    /// neither journaled nor replicated — and one at the bound applies.
    #[test]
    fn a_delta_past_max_batch_is_refused() {
        let mut ctl = FleetController::new(2, FleetPolicy::default());
        ctl.enable_journal(64);
        ctl.enable_replication();
        let (journal, backlog) = (ctl.journal_bytes(), ctl.repl_backlog_records());
        let entries = |n: u32| (0..n).map(|id| entry(id, 0, 1)).collect();
        let over = full_delta(1, entries(MAX_BATCH + 1));
        assert!(ctl.handle_frame(&encode_delta(&over)).is_none());
        let mut removals = full_delta(1, Vec::new());
        removals.removed = (0..=MAX_BATCH).collect();
        assert!(ctl.handle_frame(&encode_delta(&removals)).is_none());
        assert_eq!(ctl.metrics().snapshot().malformed_frames, 2);
        assert_eq!(ctl.journal_bytes(), journal);
        assert_eq!(ctl.repl_backlog_records(), backlog);
        assert_eq!(ctl.host_count(), 0);
        accepted(&ctl, &full_delta(1, entries(MAX_BATCH)));
        assert_eq!(ctl.cluster_capacity().containers, u64::from(MAX_BATCH));
    }

    #[test]
    fn restore_refuses_what_is_not_a_controller_journal() {
        let mut host = arv_persist::Journal::new();
        host.checkpoint(&snap(1, &[(1, 2, 100, 50)]))
            .expect("mem store");
        let err = FleetController::restore_from(host.as_bytes(), 2, FleetPolicy::default())
            .expect_err("a host journal");
        assert_eq!(&err.found[..4], b"AVRJ");
        assert!(
            FleetController::restore_from(b"not a journal", 2, FleetPolicy::default()).is_err()
        );
        // A journal cut inside its own header holds nothing.
        let mut ctl = FleetController::new(2, FleetPolicy::default());
        ctl.enable_journal(4);
        let bytes = ctl.journal_bytes().expect("journal on");
        for cut in 0..8 {
            let empty = FleetController::restore_from(&bytes[..cut], 2, FleetPolicy::default())
                .expect("its own header");
            assert_eq!(empty.host_count(), 0);
        }
        // Version 2 laid a 36-byte entry down: refused whole, not misread.
        accepted(&ctl, &full_delta(1, vec![entry(1, 0, 4)]));
        let mut old = ctl.journal_bytes().expect("journal on");
        old[4..8].copy_from_slice(&2u32.to_le_bytes());
        let err = FleetController::restore_from(&old, 2, FleetPolicy::default())
            .expect_err("a version-2 journal");
        assert_eq!(err.found[4..], 2u32.to_le_bytes());
        // The layouts version 3 names: a 28-byte entry, 111 bytes of a
        // DELTA around its entries, a 21-byte HELLO.
        let one = encode_delta(&full_delta(1, vec![entry(1, 0, 4)]));
        let none = encode_delta(&full_delta(1, Vec::new()));
        assert_eq!((one.len() - none.len(), none.len()), (28, 111));
        let hello = Hello {
            host: 1,
            tick: 1,
            epoch: 0,
        };
        assert_eq!(encode_hello(&hello).len(), 21);
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
        let kinds: Vec<PipelineEvent> = ex.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                PipelineEvent::FleetHello,
                PipelineEvent::FleetFullApplied,
                PipelineEvent::FleetDeltaApplied
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
            Some(PipelineEvent::FleetPartitioned)
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
        assert_eq!(dump.trigger, PipelineEvent::FleetGapResync);
        assert!(dump
            .counters
            .iter()
            .any(|(n, v)| n == "deltas_gap_resyncs" && *v == 1));
        // The dump freezes every declared counter, in order, then the
        // epoch.
        let names: Vec<&str> = dump.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut declared: Vec<&str> = FleetMetricsSnapshot::default()
            .counters()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        declared.push("ctl_epoch");
        assert_eq!(names, declared);

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

    /// Every anomaly emits its event into the trace ring before it
    /// freezes a flight dump, so each dump holds its own trigger at its
    /// own tick: a gap, a partition, a host's durability edges, a
    /// promotion, a fence, a demotion on a higher-epoch REPL frame, and a
    /// demotion on a lease write the store refused.
    #[test]
    fn every_flight_dump_holds_its_trigger() {
        use arv_persist::{FaultyStore, StoreFaults};
        use arv_telemetry::{EventKind, FlightDump};
        let observed = |ctl: &mut FleetController| {
            ctl.set_tracer(Tracer::bounded(1024));
            ctl.set_flight_recorder(FlightRecorder::bounded(64));
        };

        // One host: a gap, a partition, then its durability lost and
        // restored.
        let mut single = FleetController::new(2, FleetPolicy::default());
        observed(&mut single);
        let mut p = Periphery::new(1);
        p.observe(&snap(1, &[(1, 2, 100, 50)]), false, 0);
        pump(&mut p, &single);
        p.observe(&snap(2, &[(1, 3, 100, 50)]), false, 0);
        p.take_frames();
        p.observe(&snap(3, &[(1, 4, 100, 50)]), false, 0);
        pump(&mut p, &single);
        for _ in 0..5 {
            single.advance_tick();
        }
        for lost in [true, false] {
            let mut d = full_delta(2, vec![entry(7, 0, 2)]);
            d.head.durability_lost = lost;
            accepted(&single, &d);
        }

        // A replicated pair: the standby takes over and fences the stale
        // primary's stream; the fencing ACK is lost, so the primary
        // learns of the takeover from the new primary's own REPL frame.
        let lease = SharedLease::new();
        let mut primary = FleetController::new(2, FleetPolicy::default());
        let mut standby = FleetController::new(2, FleetPolicy::default());
        observed(&mut primary);
        observed(&mut standby);
        primary.enable_replication();
        primary.attach_lease(lease.clone(), 1, 2);
        standby.attach_lease(lease, 2, 2);
        let mut p = Periphery::new(3);
        p.observe(&snap(1, &[(1, 2, 100, 50)]), false, 0);
        pump(&mut p, &primary);
        pump_repl(&primary, &standby);
        primary.set_lease_stalled(true);
        for _ in 0..5 {
            standby.advance_tick();
        }
        assert!(standby.is_leader());
        p.observe(&snap(2, &[(1, 3, 100, 50)]), false, 0);
        pump(&mut p, &primary);
        for frame in primary.take_repl_frames() {
            standby.handle_frame(&frame);
        }
        standby.enable_replication();
        for frame in standby.take_repl_frames() {
            primary.handle_frame(&frame);
        }
        assert!(!primary.is_leader(), "the higher epoch demoted it");

        // A leader whose lease store runs out of space steps down.
        let mut full = FleetController::new(2, FleetPolicy::default());
        observed(&mut full);
        let faults = StoreFaults {
            full_at: Some((2, 10)),
            ..StoreFaults::default()
        };
        full.attach_lease(
            SharedLease::with_store(Box::new(FaultyStore::new(1, faults))),
            1,
            4,
        );
        for _ in 0..3 {
            full.advance_tick();
        }
        assert!(!full.is_leader(), "a refused renewal steps down");

        // Each controller's triggers, oldest first.
        let triggers = |ctl: &FleetController| -> Vec<PipelineEvent> {
            let mut dumps: Vec<FlightDump> = (0..)
                .map_while(|back| ctl.flight_recorder().get(back))
                .collect();
            dumps.reverse();
            assert_eq!(dumps.len() as u64, ctl.flight_recorder().dumps_frozen());
            for dump in &dumps {
                let trigger = EventKind::Pipeline(dump.trigger);
                assert!(
                    dump.events
                        .iter()
                        .any(|e| e.tick == dump.tick && e.kind == trigger),
                    "a {} dump at tick {} lacks its trigger",
                    dump.trigger.label(),
                    dump.tick
                );
            }
            dumps.iter().map(|dump| dump.trigger).collect()
        };
        use PipelineEvent::*;
        assert_eq!(
            triggers(&single),
            [
                FleetGapResync,
                FleetPartitioned,
                DurabilityLost,
                DurabilityRestored
            ]
        );
        assert_eq!(triggers(&primary), [FleetDemoted]);
        assert_eq!(triggers(&standby), [FleetPromoted, FleetFenced]);
        assert_eq!(triggers(&full), [DurabilityLost, FleetDemoted]);
    }

    /// A host that drops 3 × `batch_len` containers ships its removals
    /// chunked like entries — each frame at most `batch_len` of them,
    /// every frame within `MAX_FLEET_FRAME` — and the primary, the
    /// standby and both journals restored hold exactly the host's
    /// containers.
    #[test]
    fn removals_chunk_like_entries_and_every_node_agrees() {
        let batch = FleetPolicy::default().batch_len();
        let mut primary = FleetController::new(2, FleetPolicy::default());
        primary.enable_journal(1_000);
        primary.enable_replication();
        let mut standby = FleetController::new(4, FleetPolicy::default());
        standby.enable_journal(u64::MAX);
        let n = 4 * batch as u32 + 10;
        let mut p = Periphery::new(5);
        let all: Vec<(u32, u32, u64, u64)> = (0..n).map(|id| (id, 1 + id % 4, 400, 200)).collect();
        p.observe(&snap(1, &all), false, 0);
        pump(&mut p, &primary);
        pump_repl(&primary, &standby);

        // Tick 2: the first 3 × batch_len containers are gone, and every
        // fifth of the rest moves.
        let gone = 3 * batch as u32;
        let moved = |id: u32| id % 5 == 0;
        let kept: Vec<(u32, u32, u64, u64)> = (gone..n)
            .map(|id| (id, 1 + id % 4 + u32::from(moved(id)), 400, 200))
            .collect();
        p.observe(&snap(2, &kept), false, 0);
        let frames = p.take_frames();
        let mut removed = 0;
        for frame in &frames {
            assert!(frame.len() <= MAX_FLEET_FRAME as usize);
            let Some(Frame::Delta(d)) = decode_frame(frame) else {
                panic!("a DELTA");
            };
            assert!(d.removed.len() <= batch, "{} removals", d.removed.len());
            assert!(d.entries.len() <= batch);
            removed += d.removed.len();
            let resp = primary.handle_frame(frame).expect("answered");
            assert!(matches!(decode_frame(&resp), Some(Frame::Ack(a)) if !a.resync));
        }
        assert_eq!((frames.len(), removed), (3, 3 * batch));
        pump_repl(&primary, &standby);

        let want: crate::reference::Index = [(
            5,
            kept.iter()
                .map(|&(id, e_cpu, e_mem, e_avail)| {
                    let e = DeltaEntry {
                        id,
                        tenant: 0,
                        e_cpu,
                        e_mem,
                        e_avail,
                    };
                    (id, e)
                })
                .collect(),
        )]
        .into();
        assert_eq!(primary.contents(), want);
        assert_eq!(standby.contents(), want);
        for ctl in [&primary, &standby] {
            let bytes = ctl.journal_bytes().expect("journal on");
            let restored = FleetController::restore_from(&bytes, 2, FleetPolicy::default())
                .expect("a controller journal");
            assert_eq!(restored.contents(), want);
        }
    }

    mod diff_props {
        use super::*;
        use crate::protocol::{encode_delta, HostSummary, BATCH_HEAD_BYTES, ENTRY_BYTES};
        use crate::reference::{replay, Index, RecordPrimary, RecordStandby, RefRecord};
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

        /// The `k` most pressured containers of `index`, as
        /// [`FleetController::top_pressured`] ranks them.
        fn top_of(index: &Index, k: usize) -> Vec<PressurePoint> {
            let mut points: Vec<PressurePoint> = index
                .iter()
                .flat_map(|(host, c)| c.values().map(move |e| (*host, e)))
                .map(|(host, e)| PressurePoint {
                    host,
                    id: e.id,
                    pressure_milli: (e.e_avail.min(e.e_mem) * 1000)
                        .checked_div(e.e_mem)
                        .map_or(0, |served| 1000 - served as u32),
                })
                .collect();
            points.sort_by_key(|p| (std::cmp::Reverse(p.pressure_milli), p.host, p.id));
            points.truncate(k);
            points
        }

        /// The hosts, container ids and tenants the streams draw: a few
        /// small ids, and as many near `u32::MAX`.
        const HOSTS: [u32; 3] = [0, 70_000, u32::MAX - 1];
        fn wide(id: u32) -> u32 {
            if id % 3 == 0 {
                u32::MAX - id
            } else {
                id
            }
        }
        const TENANTS: [u32; 4] = [0, 1, 70_000, u32::MAX];

        /// `ctl`'s index, running sums and per-host answers are exactly
        /// `index`.
        fn assert_mirrors(ctl: &FleetController, index: &Index) {
            assert_eq!(&ctl.contents(), index);
            for (host, containers) in index {
                let explained = ctl.explain_host(*host).map(|x| x.containers);
                assert_eq!(explained, Some(containers.len() as u64), "host {host}");
            }
            for k in [1, 7, usize::MAX] {
                assert_eq!(ctl.top_pressured(k), top_of(index, k), "top {k}");
            }
            let r = ctl.cluster_capacity();
            assert_eq!((r.cpu, r.mem, r.avail, r.containers), sums(index, None));
            assert_eq!(r.hosts as usize, index.len());
            for tenant in TENANTS {
                let (t, _) = ctl.tenant_rollup(tenant);
                assert_eq!(
                    (t.cpu, t.mem, t.avail, t.containers),
                    sums(index, Some(tenant)),
                    "tenant {tenant}"
                );
            }
        }

        /// What `restore_from` makes of `ctl`'s journal: exactly `index`.
        fn assert_restores(ctl: &FleetController, index: &Index) {
            let bytes = ctl.journal_bytes().expect("journal on");
            let restored = FleetController::restore_from(&bytes, 4, FleetPolicy::default())
                .expect("a controller journal");
            assert_mirrors(&restored, index);
        }

        fn delta(host: u32, seq: u64, entries: Vec<DeltaEntry>, removed: Vec<u32>) -> Delta {
            Delta {
                head: DeltaHead {
                    host,
                    seq,
                    tick: 0,
                    full: seq == 0,
                    health: 0,
                    durability_lost: false,
                    epoch: 0,
                    origin_tick: 0,
                    trace_seq: seq,
                    summary: HostSummary::default(),
                },
                entries,
                removed,
            }
        }

        // More records than one REPL frame holds: the outbox splits at
        // the record boundaries the reference's chunking picks, every
        // frame fits, and a standby fed them all mirrors the primary.
        #[test]
        fn a_backlog_past_one_frame_splits_at_the_same_records() {
            let primary = FleetController::new(2, FleetPolicy::default());
            primary.enable_replication();
            let mut ref_primary = RecordPrimary::new(u64::MAX);
            let standby = FleetController::new(4, FleetPolicy::default());
            // The checkpoint that aligns a fresh standby goes first.
            let frames = primary.take_repl_frames();
            let lens = |frames: &[Vec<u8>]| frames.iter().map(Vec::len).collect::<Vec<_>>();
            let ref_lens = |frames: Vec<crate::reference::RefFrame>| {
                frames.iter().map(|f| f.len).collect::<Vec<_>>()
            };
            assert_eq!(lens(&frames), ref_lens(ref_primary.take_repl_frames()));
            for frame in &frames {
                standby.handle_frame(frame).expect("answered");
            }
            // One record more than a frame holds, each of 200 entries and
            // one removal: length word, kind, host batch, CRC.
            let record = 4 + 1 + BATCH_HEAD_BYTES + 4 + 200 * ENTRY_BYTES + 4 + 4 + 4;
            let n = MAX_FLEET_FRAME as u64 / record as u64 + 1;
            for seq in 0..n {
                let entries = (0..200u32)
                    .map(|id| DeltaEntry {
                        id,
                        tenant: 0,
                        e_cpu: 1 + (seq as u32 + id) % 7,
                        e_mem: 100,
                        e_avail: 40,
                    })
                    .collect();
                let d = delta(1, seq, entries, vec![200 + seq as u32]);
                primary.handle_frame(&encode_delta(&d)).expect("answered");
                assert!(ref_primary.handle_delta(&d));
            }
            assert_eq!(primary.repl_backlog_records(), 200 * n);
            let frames = primary.take_repl_frames();
            assert_eq!(
                frames.len(),
                2,
                "{n} records of {record} bytes, 1 MiB frames"
            );
            assert_eq!(lens(&frames), ref_lens(ref_primary.take_repl_frames()));
            for frame in &frames {
                assert!(frame.len() <= MAX_FLEET_FRAME as usize);
                let resp = standby.handle_frame(frame).expect("answered");
                assert!(matches!(decode_frame(&resp), Some(Frame::Ack(a)) if !a.resync));
            }
            assert_eq!(primary.repl_backlog_records(), 0);
            assert_eq!(standby.contents(), primary.contents());
            assert_eq!(
                standby.metrics().snapshot().repl_records_applied,
                200 * n + 1
            );
        }

        type Op = (u8, u32, Vec<(u32, u32, u32, u64)>, Vec<u32>, usize);

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            // Arbitrary DELTA streams — unsorted upserts with repeated
            // ids, inserts landing mid-run, removals, FULLs that leave
            // stale containers behind, gaps, host, container and tenant
            // ids up to `u32::MAX` — interleaved with ticks, checkpoints
            // and REPL pumps that are whole, torn mid-record or lost:
            // the primary, its journal restored, the standby and its
            // shadow journal restored hold exactly what the reference
            // model of one batch per DELTA does, with the same rollups,
            // per-host answers and record counts.
            #[test]
            fn batch_framing_equals_the_per_record_path(
                every in 1u64..6,
                ops in prop::collection::vec(
                    (0u8..13, 0u32..3,
                     prop::collection::vec((0u32..300, 0u32..4, 1u32..8, 1u64..5), 0..64),
                     prop::collection::vec(0u32..300, 0..8),
                     1usize..60),
                    1..80),
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
                for (kind, h, entries, removed, tear) in ops {
                    let host = HOSTS[h as usize];
                    let entries: Vec<DeltaEntry> = entries
                        .iter()
                        .map(|&(id, tenant, e_cpu, mem)| DeltaEntry {
                            id: wide(id),
                            tenant: TENANTS[tenant as usize],
                            e_cpu,
                            e_mem: mem * 100,
                            e_avail: mem * 40,
                        })
                        .collect();
                    let removed: Vec<u32> = removed.into_iter().map(wide).collect();
                    match kind {
                        0..=7 => {
                            let h = h as usize;
                            // A gap: one sequence number goes missing.
                            seq[h] += u64::from(kind == 7);
                            let mut d = delta(host, seq[h], entries, removed);
                            d.head.full = wants_full[h] || kind == 6;
                            let resp = primary.handle_frame(&encode_delta(&d));
                            let accepted = ref_primary.handle_delta(&d);
                            seq[h] += 1;
                            let Some(Frame::Ack(ack)) = resp.as_deref().and_then(decode_frame) else {
                                panic!("expected ACK");
                            };
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
                            // never have heard of, a reset in mid-stream,
                            // batches on either side of it.
                            let (before, after) = entries.split_at(entries.len() / 2);
                            let batch = |host: u32, entries: &[DeltaEntry], removed: Vec<u32>| {
                                RefRecord::Batch {
                                    host,
                                    full: false,
                                    checkpoint: false,
                                    entries: entries.to_vec(),
                                    removed,
                                }
                            };
                            let mut stream = vec![
                                batch(HOSTS[(h as usize + 1) % 3], &[], removed.clone()),
                                batch(host, before, Vec::new()),
                            ];
                            if tear % 2 == 0 {
                                stream.push(RefRecord::Reset);
                            }
                            stream.push(batch(HOSTS[(h as usize + 2) % 3], after, removed));
                            let mut records = Vec::new();
                            for r in &stream {
                                match r {
                                    RefRecord::Reset => {
                                        arv_persist::frame_checkpoint(&mut records, &Snapshot::at(3))
                                    }
                                    RefRecord::Batch { host, entries, removed, .. } => {
                                        let d = delta(*host, 1, entries.clone(), removed.clone());
                                        frame_delta_record(&mut records, &encode_delta(&d));
                                    }
                                }
                            }
                            let frame = encode_repl_parts(0, ref_standby.expected_seq, 0, &[host], &records);
                            let want = ref_standby.handle_repl(&frame, &stream);
                            let got = standby.handle_frame(&frame).and_then(|resp| {
                                match decode_frame(&resp) {
                                    Some(Frame::Ack(ack)) => Some((ack.expected_seq, ack.resync)),
                                    _ => None,
                                }
                            });
                            prop_assert_eq!(got, want);
                            assert_mirrors(&standby, &ref_standby.index);
                            assert_restores(&standby, &ref_standby.index);
                        }
                        _ => {
                            let frames = primary.take_repl_frames();
                            let ref_frames = ref_primary.take_repl_frames();
                            prop_assert_eq!(frames.len(), ref_frames.len());
                            // 9 delivers, 10 tears the last frame inside
                            // its records, 11 loses the batch.
                            for (i, (frame, ref_frame)) in frames.iter().zip(&ref_frames).enumerate() {
                                prop_assert_eq!(frame.len(), ref_frame.len);
                                if kind == 11 {
                                    continue;
                                }
                                let last = i + 1 == frames.len();
                                let cut = if kind == 10 && last { tear.min(frame.len() / 2) } else { 0 };
                                let frame = &frame[..frame.len() - cut];
                                let want = ref_standby.handle_repl(frame, &ref_frame.records);
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
                            assert_mirrors(&standby, &ref_standby.index);
                            assert_restores(&standby, &ref_standby.index);
                            let m = standby.metrics().snapshot();
                            prop_assert_eq!(m.repl_records_applied, ref_standby.applied);
                            prop_assert_eq!(m.repl_truncated, ref_standby.truncated);
                        }
                    }
                    assert_eq!(primary.contents(), ref_primary.index);
                    assert_restores(&primary, &replay(&ref_primary.journal));
                }
                assert_mirrors(&primary, &ref_primary.index);
                prop_assert_eq!(
                    primary.metrics().snapshot().repl_records_streamed,
                    ref_primary.streamed
                );
            }

            // Streams in a periphery's shape: two hosts of dense ids whose
            // tenants come in runs of consecutive ids, a FULL, then sorted
            // batches that each move about a quarter of a host — some
            // entries to another tenant in the middle of a run — and
            // drop and re-add a few ids. After every batch the primary,
            // the standby and the primary's journal restored hold
            // exactly the reference, rollups and tenants included.
            #[test]
            fn tenant_runs_fold_to_the_reference(
                n in 1u32..300,
                run_len in 1u32..40,
                every in 1u64..4,
                rounds in prop::collection::vec((0u32..4, 0u32..1000, 1u32..9), 1..10),
            ) {
                let mut primary = FleetController::new(2, FleetPolicy::default());
                primary.enable_journal(every);
                primary.enable_replication();
                let standby = FleetController::new(4, FleetPolicy::default());
                let mut index = Index::new();
                let tenant_of = |id: u32, shift: u32| TENANTS[((id / run_len + shift) % 4) as usize];
                for (h, host) in [3u32, 70_000].into_iter().enumerate() {
                    let entries: Vec<DeltaEntry> = (0..n)
                        .map(|id| DeltaEntry {
                            id,
                            tenant: tenant_of(id, 0),
                            e_cpu: 1 + id % 5,
                            e_mem: 1000,
                            e_avail: 400 + u64::from(id),
                        })
                        .collect();
                    index.insert(host, entries.iter().map(|e| (e.id, *e)).collect());
                    accepted(&primary, &delta(host, 0, entries, Vec::new()));
                    for (r, &(phase, salt, switch)) in rounds.iter().enumerate() {
                        let seq = r as u64 + 1;
                        let containers = index.entry(host).or_default();
                        // A quarter of the ids, in order; every `switch`-th
                        // of those changes tenant, mid-run.
                        let mut entries = Vec::new();
                        let mut removed = Vec::new();
                        for id in 0..n {
                            if (id + salt) % 29 == 0 {
                                if containers.remove(&id).is_some() {
                                    removed.push(id);
                                }
                                continue;
                            }
                            if (id + phase + h as u32) % 4 != 0 && containers.contains_key(&id) {
                                continue;
                            }
                            let shift = u32::from((id / 4) % switch == 0);
                            let e = DeltaEntry {
                                id,
                                tenant: tenant_of(id, shift),
                                e_cpu: 1 + (id + salt) % 7,
                                e_mem: 1000 + u64::from(salt),
                                e_avail: 400 + u64::from((id * salt) % 500),
                            };
                            containers.insert(id, e);
                            entries.push(e);
                        }
                        accepted(&primary, &delta(host, seq, entries, removed));
                        if r % 3 == 2 {
                            primary.advance_tick();
                        }
                        pump_repl(&primary, &standby);
                        assert_mirrors(&primary, &index);
                        assert_mirrors(&standby, &index);
                        assert_restores(&primary, &index);
                    }
                }
            }
        }
    }

    impl FleetController {
        /// Hosts currently tracked.
        fn host_count(&self) -> usize {
            self.shards.iter().map(|s| lock(s).hosts.len()).sum()
        }

        /// Every tracked host's containers, by host and container id.
        fn contents(&self) -> crate::reference::Index {
            let mut index = crate::reference::Index::new();
            self.each_host(|hid, host| {
                let containers = host.containers.values().map(|e| (e.id, *e)).collect();
                index.insert(hid, containers);
            });
            index
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

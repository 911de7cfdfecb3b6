//! The periphery: a thin per-host agent that streams view deltas up.
//!
//! A [`Periphery`] rides the host's update timer. Each firing it marks
//! what moved on a mirror of what it last shipped, and queues DELTA
//! frames — chunked to the controller's `max_batch` — on an outbox the
//! transport drains. It has two front-ends onto one mark rule and one
//! flush: [`Periphery::observe`] merge-walks a whole
//! [`arv_persist::Snapshot`] (the one the journal checkpoints), finding
//! the new, the moved and the gone; [`Periphery::observe_moved`] takes
//! only the views that moved (the list `NsMonitor::take_moved` drains)
//! and costs what moved. The first frame after attach (and after any
//! controller-requested resync or reconnect) is a FULL snapshot, and a
//! removal or a tenant change also needs the whole snapshot; everything
//! else is incremental.
//!
//! A view is news iff its value (`tenant`, `e_cpu`, `e_mem`, `e_avail`)
//! moved: the per-entry `last_tick` stamp advances on every healthy
//! firing and is not a reason to ship. Freshness travels once per host
//! per tick instead — a healthy observation with nothing to say still
//! ships one empty DELTA, the heartbeat that keeps the controller's
//! staleness clock from flagging a quiet host partitioned.
//!
//! The periphery owns no socket: the caller moves frames and feeds ACKs
//! back. That keeps it deterministic under simulation and reusable over
//! either the real wire ([`crate::wire::FleetClient`], the fleet's one
//! client) or an in-process link (the `fleet` campaign's scenarios,
//! `experiments --fig fleet`).
//!
//! # Backpressure and fencing
//!
//! The pushed policy's `rate_burst` is **enforced** here as a token
//! bucket: each observation refills a quarter-burst of tokens and every
//! queued entry or removal costs one. When the bucket runs dry the diff
//! is *coalesced* — held as unsent marks on the shipped-state mirror,
//! where newer observations of the same container overwrite older
//! unsent ones — and flushes as one batch when tokens return. Nothing is ever dropped; a FULL resync
//! bypasses the bucket (the controller demanded it).
//!
//! Every ACK carries the sender's controller epoch. The periphery
//! tracks the highest epoch it has ever seen and **fences** ACKs
//! stamped lower — a deposed primary's ACK cannot mutate policy or
//! sequence state, no matter when it arrives.

use arv_persist::{Snapshot, ViewState};
use std::collections::{BTreeSet, HashMap};

use crate::protocol::{
    encode_delta, encode_hello, Ack, Delta, DeltaEntry, FleetPolicy, Hello, HostSummary,
    HEALTH_DEGRADED, HEALTH_DURABILITY_LOST, HEALTH_FRESH, HEALTH_STALE,
};

/// What the periphery has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeripheryStats {
    /// DELTA frames queued.
    pub frames: u64,
    /// Delta entries shipped across all frames.
    pub entries: u64,
    /// FULL snapshots sent (first attach and every resync).
    pub full_syncs: u64,
    /// Controller-requested resyncs honoured (sequence gaps).
    pub resyncs: u64,
    /// Policy updates adopted from ACKs.
    pub policy_updates: u64,
    /// Observations whose diff was held back (coalesced) because the
    /// token bucket ran dry.
    pub deltas_coalesced: u64,
    /// ACKs rejected for carrying a stale controller epoch.
    pub acks_fenced: u64,
    /// Reconnects to a (possibly different) controller.
    pub failovers: u64,
}

/// What [`Periphery::handle_ack`] did with an ACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckDisposition {
    /// The ACK was applied (policy / resync honoured).
    Applied,
    /// The ACK carried a stale controller epoch: nothing was applied.
    Fenced,
    /// The sender does not hold the lease: nothing was applied; the
    /// transport should walk the controller list.
    NotLeader,
    /// The ACK addressed a different host: ignored.
    Ignored,
}

/// One container in the shipped-state mirror.
#[derive(Debug, Clone, Copy)]
struct Mirrored {
    entry: DeltaEntry,
    /// Diffed but not yet queued (token bucket dry); a newer observation
    /// overwrites `entry` and keeps the mark.
    unsent: bool,
}

/// Per-host agent streaming view deltas to the [`crate::FleetController`].
#[derive(Debug)]
pub struct Periphery {
    host: u32,
    seq: u64,
    policy: FleetPolicy,
    said_hello: bool,
    pending_full: bool,
    /// Last health byte shipped, durability flag included — a
    /// durability flip with no view changes still ships one (empty)
    /// delta, exactly like a staleness flip.
    last_health: u8,
    /// Durability ladder state mirrored from the host before each
    /// observation (see [`Periphery::set_durability`]).
    durability_lost: bool,
    journal_io_errors: u64,
    /// The state last diffed for each live container, sorted by id: the
    /// merge-walk pairs it with a sorted snapshot, and a moved id finds
    /// its entry by binary search.
    last_sent: Vec<Mirrored>,
    /// The previous `last_sent`, kept for its capacity: each diff
    /// builds the next mirror here and swaps.
    spare: Vec<Mirrored>,
    /// A snapshot that arrived unsorted, sorted: input is never trusted
    /// to be in id order.
    sorted: Vec<ViewState>,
    tenants: HashMap<u32, u32>,
    /// [`set_tenant`](Periphery::set_tenant) was called since the last
    /// diff: until then a mirrored entry's tenant is still the map's.
    tenants_moved: bool,
    /// Diffed-but-unsent removals.
    pending_removed: BTreeSet<u32>,
    /// Where in `last_sent` the entries marked unsent sit, one position
    /// each, so a flush reads them without scanning the mirror.
    marked: Vec<usize>,
    /// Send tokens remaining; refilled each observation, capped at
    /// `policy.rate_burst`.
    tokens: u64,
    /// Highest controller epoch seen in any ACK (fencing floor).
    ctl_epoch_seen: u64,
    /// Monotone causal trace sequence: +1 per encoded DELTA frame,
    /// never reset by resync or reconnect.
    trace_seq: u64,
    /// The host tick at which the oldest diff now in the pending layer
    /// was observed — the origin of the causal span. Survives
    /// coalescing so `flush tick − origin` exposes the bucket's delay.
    pending_origin: Option<u64>,
    /// Snapshot tick of the last DELTA queued: a quiet host heartbeats
    /// once per tick, not once per observation.
    shipped_tick: Option<u64>,
    outbox: Vec<Vec<u8>>,
    stats: PeripheryStats,
}

impl Periphery {
    /// A fresh agent for `host`. Its first observation ships a HELLO
    /// followed by a FULL snapshot.
    pub fn new(host: u32) -> Periphery {
        let policy = FleetPolicy::default();
        Periphery {
            host,
            seq: 0,
            said_hello: false,
            pending_full: true,
            last_health: HEALTH_FRESH,
            durability_lost: false,
            journal_io_errors: 0,
            last_sent: Vec::new(),
            spare: Vec::new(),
            sorted: Vec::new(),
            tenants: HashMap::new(),
            tenants_moved: false,
            pending_removed: BTreeSet::new(),
            marked: Vec::new(),
            tokens: u64::from(policy.rate_burst.max(1)),
            ctl_epoch_seen: 0,
            trace_seq: 0,
            pending_origin: None,
            shipped_tick: None,
            policy,
            outbox: Vec::new(),
            stats: PeripheryStats::default(),
        }
    }

    /// The policy currently in force (defaults until the first ACK).
    pub fn policy(&self) -> FleetPolicy {
        self.policy
    }

    /// Counters so far.
    pub fn stats(&self) -> PeripheryStats {
        self.stats
    }

    /// Record a container's owning tenant (carried in every delta entry;
    /// containers without a record roll up under tenant 0).
    pub fn set_tenant(&mut self, container: u32, tenant: u32) {
        self.tenants.insert(container, tenant);
        self.tenants_moved = true;
    }

    /// Mirror the host's durability-ladder state before an observation:
    /// whether the journal has lost durability, and how many store
    /// errors it has absorbed. A flip in `lost` ships an (empty) delta
    /// on the next [`Periphery::observe`] even when no view changed, so
    /// the controller sees `DurabilityLost`/`DurabilityRestored` edges
    /// as they happen.
    pub fn set_durability(&mut self, lost: bool, io_errors: u64) {
        self.durability_lost = lost;
        self.journal_io_errors = io_errors;
    }

    /// Whether the next observation needs the whole snapshot
    /// ([`observe`](Periphery::observe)): a FULL is due (first attach,
    /// a resync demand, a reconnect) or a tenant was set since the last
    /// one. Until then [`observe_moved`](Periphery::observe_moved)
    /// serves.
    pub fn needs_snapshot(&self) -> bool {
        self.pending_full || self.tenants_moved
    }

    /// Diff `snap` against the last shipped state, coalesce it into the
    /// pending layer, and flush DELTA frames if the token bucket
    /// allows. `stalled` marks the host's monitor as behind;
    /// `staleness_age` is how many ticks behind.
    pub fn observe(&mut self, snap: &Snapshot, stalled: bool, staleness_age: u64) {
        if !self.said_hello {
            self.outbox.push(encode_hello(&Hello {
                host: self.host,
                tick: snap.tick,
                containers: snap.entries.len() as u32,
                epoch: self.policy.epoch,
            }));
            self.said_hello = true;
        }

        let full = self.pending_full;
        if full {
            // Everything ships fresh: earlier unsent diffs are subsumed,
            // so the causal origin resets to this very tick.
            self.pending_removed.clear();
            self.last_sent.clear();
            self.pending_origin = None;
        }

        // Diff against the shipped-state mirror, which tracks what has
        // been *queued*, so repeated observations don't re-diff unsent
        // state: one merge-walk of mirror and snapshot, both in id
        // order, finds the new, the moved and the gone.
        let in_order = snap.entries.windows(2).all(|w| w[0].id < w[1].id);
        if !in_order {
            // Never trusted: sorted into a scratch copy, and of an id
            // that repeats the last occurrence wins, as in a map.
            self.sorted.clear();
            self.sorted.extend_from_slice(&snap.entries);
            self.sorted.sort_by_key(|s| s.id);
            self.sorted.reverse();
            self.sorted.dedup_by_key(|s| s.id);
            self.sorted.reverse();
        }
        let sorted = std::mem::take(&mut self.sorted);
        let entries = if in_order { &snap.entries } else { &sorted };
        let sent = std::mem::take(&mut self.last_sent);
        let mut next = std::mem::take(&mut self.spare);
        next.clear();
        next.reserve(entries.len());
        self.marked.clear();
        let mut at = 0;
        // `None` ends the walk: every mirrored id still unmatched is gone.
        for s in entries.iter().map(Some).chain([None]) {
            while at < sent.len() && s.map_or(true, |s| sent[at].entry.id < s.id) {
                self.tenants.remove(&sent[at].entry.id);
                self.pending_removed.insert(sent[at].entry.id);
                at += 1;
            }
            let Some(s) = s else { break };
            let prev = sent.get(at).filter(|p| p.entry.id == s.id);
            at += usize::from(prev.is_some());
            let tenant = match prev {
                Some(p) if !self.tenants_moved => p.entry.tenant,
                _ => self.tenants.get(&s.id).copied().unwrap_or(0),
            };
            let mirrored = self.mark(prev, s, tenant);
            if mirrored.unsent {
                self.marked.push(next.len());
            }
            next.push(mirrored);
        }
        self.tenants_moved = false;
        self.last_sent = next;
        self.spare = sent;
        self.sorted = sorted;
        self.flush(snap.tick, stalled, staleness_age);
    }

    /// [`observe`](Periphery::observe) from what moved instead of the
    /// whole snapshot: `moved` holds, as of `tick`, every container whose
    /// value moved since the previous observation, in any order; naming
    /// one that did not move is harmless. It cannot say what left, so
    /// after a removal — as whenever [`needs_snapshot`] says so — the
    /// caller observes the whole snapshot instead. Each moved id costs a
    /// binary search of the mirror, a new one an insertion.
    ///
    /// # Panics
    ///
    /// If [`needs_snapshot`]: only the whole snapshot can answer a FULL
    /// or re-tag every container.
    ///
    /// [`needs_snapshot`]: Periphery::needs_snapshot
    pub fn observe_moved(
        &mut self,
        tick: u64,
        moved: &[ViewState],
        stalled: bool,
        staleness_age: u64,
    ) {
        assert!(
            !self.needs_snapshot(),
            "a FULL or a tenant change needs the whole snapshot"
        );
        for s in moved {
            match self.last_sent.binary_search_by_key(&s.id, |m| m.entry.id) {
                Ok(at) => {
                    let prev = self.last_sent[at];
                    let next = self.mark(Some(&prev), s, prev.entry.tenant);
                    if next.unsent && !prev.unsent {
                        self.marked.push(at);
                    }
                    self.last_sent[at] = next;
                }
                Err(at) => {
                    let tenant = self.tenants.get(&s.id).copied().unwrap_or(0);
                    let next = self.mark(None, s, tenant);
                    for m in self.marked.iter_mut().filter(|m| **m >= at) {
                        *m += 1;
                    }
                    self.marked.push(at);
                    self.last_sent.insert(at, next);
                }
            }
        }
        self.flush(tick, stalled, staleness_age);
    }

    /// The one rule both front-ends mark by: `s` under `tenant` is news
    /// iff `(tenant, e_cpu, e_mem, e_avail)` differs from the mirrored
    /// `prev` (or nothing is mirrored). News replaces the mirror entry,
    /// marked unsent; otherwise `prev` stands, stamp and mark included.
    fn mark(&mut self, prev: Option<&Mirrored>, s: &ViewState, tenant: u32) -> Mirrored {
        if let Some(p) = prev.filter(|Mirrored { entry: e, .. }| {
            (e.tenant, e.e_cpu, e.e_mem, e.e_avail) == (tenant, s.e_cpu, s.e_mem, s.e_avail)
        }) {
            return *p;
        }
        self.pending_removed.remove(&s.id);
        Mirrored {
            entry: DeltaEntry {
                id: s.id,
                tenant,
                e_cpu: s.e_cpu,
                e_mem: s.e_mem,
                e_avail: s.e_avail,
                last_tick: s.last_tick,
            },
            unsent: true,
        }
    }

    /// Ship what the mirror holds unsent, as of `tick`: the heartbeat,
    /// the token bucket and the chunking both front-ends share.
    fn flush(&mut self, tick: u64, stalled: bool, staleness_age: u64) {
        let full = self.pending_full;
        let health = if stalled {
            HEALTH_DEGRADED
        } else if staleness_age > 0 {
            HEALTH_STALE
        } else {
            HEALTH_FRESH
        };
        // The byte actually compared for flip detection folds the
        // durability flag in: losing or regaining durability is a
        // health transition the controller must see.
        let shipped_health = health
            | if self.durability_lost {
                HEALTH_DURABILITY_LOST
            } else {
                0
            };
        let unsent = self.marked.len();

        // Stamp the span origin: the tick at which the oldest unsent
        // diff entered the pending layer. Coalescing keeps it, so the
        // eventual flush carries how long the bucket held the data.
        if self.pending_origin.is_none() && (unsent > 0 || !self.pending_removed.is_empty()) {
            self.pending_origin = Some(tick);
        }

        // With no view changes an (empty) delta still ships on a health
        // transition, so the controller sees Fresh↔Stale↔Degraded flips
        // as they happen, and once per tick of a healthy host as its
        // heartbeat. A stalled host has no freshness to report: it goes
        // quiet and the controller's staleness budget flags it.
        let heartbeat = !stalled && self.shipped_tick.map_or(true, |t| tick > t);
        if !full
            && unsent == 0
            && self.pending_removed.is_empty()
            && shipped_health == self.last_health
            && !heartbeat
        {
            return;
        }

        // Enforce the pushed `rate_burst` as a token bucket: a
        // quarter-burst refills per observation, every pending entry or
        // removal costs one token. A dry bucket *coalesces* — the diff
        // stays pending (newer states overwrite older unsent ones) and
        // flushes as one batch when tokens return. A FULL resync
        // bypasses the bucket: the controller demanded it.
        let capacity = u64::from(self.policy.rate_burst.max(1));
        let refill = (capacity / 4).max(1);
        self.tokens = self.tokens.saturating_add(refill).min(capacity);
        let cost = (unsent + self.pending_removed.len()) as u64;
        // A full bucket always buys one flush, even when the coalesced
        // diff outgrew the whole burst — coalescing delays, it can
        // never starve.
        if !full && cost > self.tokens && self.tokens < capacity {
            self.stats.deltas_coalesced += 1;
            return;
        }
        self.tokens = self.tokens.saturating_sub(cost);
        self.last_health = shipped_health;
        self.shipped_tick = Some(tick);
        // FULL data is re-read fresh at this tick; otherwise the span
        // starts where the oldest pending diff was observed. An empty
        // (health-flip) delta originates here too.
        let origin_tick = self.pending_origin.take().unwrap_or(tick);

        // Entries ship in id order: the merge-walk lists their positions
        // so, a moved list in its own order.
        self.marked.sort_unstable();
        let entries: Vec<DeltaEntry> = self
            .marked
            .drain(..)
            .map(|at| {
                let m = &mut self.last_sent[at];
                m.unsent = false;
                m.entry
            })
            .collect();
        let mut removed: Vec<u32> = std::mem::take(&mut self.pending_removed)
            .into_iter()
            .collect();

        // Chunk into frames of at most `max_batch` entries. The FULL
        // flag rides only the first frame of a resync; followers are
        // ordinary increments the controller applies in sequence.
        let batch = self.policy.max_batch.max(1) as usize;
        let mut first = true;
        let mut rest = entries.as_slice();
        loop {
            let take = rest.len().min(batch);
            let (chunk, tail) = rest.split_at(take);
            let frame_removed = if first || tail.is_empty() {
                std::mem::take(&mut removed)
            } else {
                Vec::new()
            };
            self.stats.frames += 1;
            self.stats.entries += chunk.len() as u64;
            self.trace_seq += 1;
            self.outbox.push(encode_delta(&Delta {
                host: self.host,
                seq: self.seq,
                tick,
                full: full && first,
                health,
                durability_lost: self.durability_lost,
                staleness_age,
                epoch: self.policy.epoch,
                origin_tick,
                trace_seq: self.trace_seq,
                summary: HostSummary {
                    frames: self.stats.frames,
                    entries: self.stats.entries,
                    full_syncs: self.stats.full_syncs,
                    resyncs: self.stats.resyncs,
                    deltas_coalesced: self.stats.deltas_coalesced,
                    acks_fenced: self.stats.acks_fenced,
                    journal_io_errors: self.journal_io_errors,
                },
                entries: chunk.to_vec(),
                removed: frame_removed,
            }));
            self.seq += 1;
            first = false;
            rest = tail;
            if rest.is_empty() {
                break;
            }
        }
        if full {
            self.stats.full_syncs += 1;
            self.pending_full = false;
        }
    }

    /// Drain the queued frames (HELLO first, then DELTAs in order).
    pub fn take_frames(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.outbox)
    }

    /// Apply a controller ACK: adopt a strictly newer policy, and honour
    /// a resync request by scheduling a FULL snapshot. (The ACK's
    /// `expected_seq` is informational — with several frames in flight
    /// it naturally trails the local counter, so only the controller's
    /// explicit resync flag marks real loss.)
    ///
    /// ACKs stamped with a controller epoch **below the highest seen**
    /// are fenced: counted, and no state — policy, sequence, resync —
    /// is mutated. A `not_leader` ACK is likewise never applied; the
    /// returned disposition tells the transport to walk its controller
    /// list.
    pub fn handle_ack(&mut self, ack: &Ack) -> AckDisposition {
        if ack.host != self.host {
            return AckDisposition::Ignored;
        }
        if ack.ctl_epoch < self.ctl_epoch_seen {
            self.stats.acks_fenced += 1;
            return AckDisposition::Fenced;
        }
        self.ctl_epoch_seen = ack.ctl_epoch;
        if ack.not_leader {
            return AckDisposition::NotLeader;
        }
        if let Some(p) = &ack.policy {
            if p.epoch > self.policy.epoch {
                self.policy = *p;
                self.stats.policy_updates += 1;
            }
        }
        if ack.resync && !self.pending_full {
            self.pending_full = true;
            self.stats.resyncs += 1;
        }
        AckDisposition::Applied
    }

    /// The highest controller epoch observed in any ACK (fencing floor).
    pub fn ctl_epoch_seen(&self) -> u64 {
        self.ctl_epoch_seen
    }

    /// The transport reconnected (same or different controller): say
    /// HELLO again and answer the new primary's world-view with a FULL
    /// snapshot. Pending coalesced diffs are kept — the FULL subsumes
    /// them at the next observation.
    pub fn on_reconnect(&mut self) {
        self.said_hello = false;
        if !self.pending_full {
            self.pending_full = true;
        }
        self.stats.failovers += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_frame, Frame};
    use arv_persist::ViewState;

    fn snap(tick: u64, states: &[(u32, u32, u64)]) -> Snapshot {
        let mut s = Snapshot::at(tick);
        for (id, cpu, mem) in states {
            s.entries.push(ViewState {
                id: *id,
                e_cpu: *cpu,
                e_mem: *mem,
                e_avail: mem / 2,
                last_tick: tick,
            });
        }
        s
    }

    fn deltas(frames: Vec<Vec<u8>>) -> Vec<Delta> {
        frames
            .into_iter()
            .filter_map(|f| match decode_frame(&f) {
                Some(Frame::Delta(d)) => Some(d),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn first_observation_is_hello_plus_full() {
        let mut p = Periphery::new(4);
        p.observe(&snap(1, &[(1, 2, 100), (2, 4, 200)]), false, 0);
        let frames = p.take_frames();
        assert_eq!(frames.len(), 2);
        assert!(matches!(
            decode_frame(&frames[0]),
            Some(Frame::Hello(h)) if h.host == 4 && h.containers == 2
        ));
        let d = deltas(vec![frames[1].clone()]).remove(0);
        assert!(d.full);
        assert_eq!(d.entries.len(), 2);
        assert_eq!(d.seq, 0);
    }

    #[test]
    fn unchanged_state_sends_nothing() {
        let mut p = Periphery::new(1);
        let s = snap(1, &[(1, 2, 100)]);
        p.observe(&s, false, 0);
        p.take_frames();
        p.observe(&s, false, 0);
        assert!(!p.has_frames());
    }

    #[test]
    fn a_moved_stamp_is_not_news_but_the_tick_is_a_heartbeat() {
        let mut p = Periphery::new(1);
        p.observe(&snap(1, &[(1, 2, 100), (2, 4, 200)]), false, 0);
        p.take_frames();
        // Same values, every `last_tick` moved: one empty DELTA.
        p.observe(&snap(2, &[(1, 2, 100), (2, 4, 200)]), false, 0);
        let ds = deltas(p.take_frames());
        assert_eq!(ds.len(), 1, "one heartbeat per tick");
        assert!(ds[0].entries.is_empty() && ds[0].removed.is_empty());
        assert_eq!((ds[0].tick, ds[0].origin_tick, ds[0].seq), (2, 2, 1));
        // Observed again within the tick: freshness already travelled.
        p.observe(&snap(2, &[(1, 2, 100), (2, 4, 200)]), false, 0);
        assert!(!p.has_frames());
        // One value moves: exactly that entry ships, stamp included.
        p.observe(&snap(3, &[(1, 2, 100), (2, 5, 200)]), false, 0);
        let ds = deltas(p.take_frames());
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].entries.len(), 1);
        assert_eq!((ds[0].entries[0].id, ds[0].entries[0].last_tick), (2, 3));
        assert_eq!(p.stats().entries, 3, "2 in the FULL, 1 changed");
    }

    #[test]
    fn a_stalled_host_has_no_freshness_to_report() {
        let mut p = Periphery::new(1);
        let s = [(1, 2, 100)];
        p.observe(&snap(1, &s), false, 0);
        p.take_frames();
        // The stall itself is a health flip and ships once …
        p.observe(&snap(2, &s), true, 0);
        assert_eq!(deltas(p.take_frames()).len(), 1);
        // … then the host goes quiet, so the controller's staleness
        // budget can flag it, until it is healthy again.
        p.observe(&snap(3, &s), true, 0);
        p.observe(&snap(4, &s), true, 0);
        assert!(!p.has_frames());
        p.observe(&snap(5, &s), false, 0);
        assert_eq!(deltas(p.take_frames()).len(), 1);
    }

    #[test]
    fn durability_flip_ships_empty_delta() {
        let mut p = Periphery::new(1);
        let s = snap(1, &[(1, 2, 100)]);
        p.observe(&s, false, 0);
        p.take_frames();

        // Losing durability with zero view changes still ships a frame.
        p.set_durability(true, 3);
        p.observe(&s, false, 0);
        let ds = deltas(p.take_frames());
        assert_eq!(ds.len(), 1);
        assert!(ds[0].durability_lost);
        assert!(ds[0].entries.is_empty());
        assert_eq!(ds[0].summary.journal_io_errors, 3);

        // Steady degraded state is quiet again...
        p.observe(&s, false, 0);
        assert!(!p.has_frames());

        // ...and healing flips once more.
        p.set_durability(false, 3);
        p.observe(&s, false, 0);
        let ds = deltas(p.take_frames());
        assert_eq!(ds.len(), 1);
        assert!(!ds[0].durability_lost);
        assert_eq!(ds[0].summary.journal_io_errors, 3);
    }

    #[test]
    fn incremental_diff_and_removal() {
        let mut p = Periphery::new(1);
        p.observe(&snap(1, &[(1, 2, 100), (2, 4, 200)]), false, 0);
        p.take_frames();
        p.observe(&snap(2, &[(1, 3, 100)]), false, 0);
        let ds = deltas(p.take_frames());
        assert_eq!(ds.len(), 1);
        assert!(!ds[0].full);
        assert_eq!(ds[0].entries.len(), 1);
        assert_eq!(ds[0].entries[0].e_cpu, 3);
        assert_eq!(ds[0].removed, vec![2]);
    }

    #[test]
    fn resync_request_triggers_full() {
        let mut p = Periphery::new(1);
        p.observe(&snap(1, &[(1, 2, 100)]), false, 0);
        p.take_frames();
        p.handle_ack(&Ack {
            host: 1,
            expected_seq: 0,
            ctl_epoch: 0,
            resync: true,
            not_leader: false,
            policy: None,
        });
        p.observe(&snap(2, &[(1, 2, 100)]), false, 0);
        let ds = deltas(p.take_frames());
        assert_eq!(ds.len(), 1);
        assert!(ds[0].full);
        assert_eq!(p.stats().resyncs, 1);
    }

    #[test]
    fn batches_chunk_to_policy() {
        let mut p = Periphery::new(1);
        p.handle_ack(&Ack {
            host: 1,
            expected_seq: 0,
            ctl_epoch: 0,
            resync: false,
            not_leader: false,
            policy: Some(FleetPolicy {
                epoch: 1,
                max_batch: 3,
                ..FleetPolicy::default()
            }),
        });
        let states: Vec<(u32, u32, u64)> = (0..10).map(|i| (i, 1, 100)).collect();
        p.observe(&snap(1, &states), false, 0);
        let ds = deltas(p.take_frames());
        assert_eq!(ds.len(), 4);
        assert!(ds[0].full && !ds[1].full);
        assert_eq!(ds.iter().map(|d| d.entries.len()).sum::<usize>(), 10);
        let seqs: Vec<u64> = ds.iter().map(|d| d.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(p.stats().policy_updates, 1);
    }

    #[test]
    fn tenants_ride_entries() {
        let mut p = Periphery::new(1);
        p.set_tenant(1, 77);
        p.observe(&snap(1, &[(1, 2, 100), (2, 2, 100)]), false, 0);
        let ds = deltas(p.take_frames());
        let tenants: Vec<u32> = ds[0].entries.iter().map(|e| e.tenant).collect();
        assert_eq!(tenants, vec![77, 0]);
    }

    fn plain_ack(host: u32, ctl_epoch: u64) -> Ack {
        Ack {
            host,
            expected_seq: 0,
            ctl_epoch,
            resync: false,
            not_leader: false,
            policy: None,
        }
    }

    #[test]
    fn token_bucket_coalesces_and_flushes_once() {
        let mut p = Periphery::new(1);
        p.handle_ack(&Ack {
            policy: Some(FleetPolicy {
                epoch: 1,
                rate_burst: 4,
                ..FleetPolicy::default()
            }),
            ..plain_ack(1, 0)
        });
        let states: Vec<(u32, u32, u64)> = (0..8).map(|i| (i, 1, 100)).collect();
        p.observe(&snap(1, &states), false, 0);
        let ds = deltas(p.take_frames());
        assert_eq!(ds.len(), 1, "FULL bypasses the bucket");
        assert!(ds[0].full);

        // Every container changes but the bucket is dry: the diff is
        // coalesced, not sent and not dropped.
        let changed: Vec<(u32, u32, u64)> = (0..8).map(|i| (i, 2, 100)).collect();
        p.observe(&snap(2, &changed), false, 0);
        assert!(!p.has_frames(), "dry bucket defers the flush");
        assert_eq!(p.stats().deltas_coalesced, 1);

        // A newer value for container 0 overwrites its unsent diff.
        let newer: Vec<(u32, u32, u64)> = (0..8)
            .map(|i| (i, if i == 0 { 9 } else { 2 }, 100))
            .collect();
        let mut flush_tick = None;
        for t in 3..64 {
            p.observe(&snap(t, &newer), false, 0);
            if p.has_frames() {
                flush_tick = Some(t);
                break;
            }
        }
        assert!(flush_tick.is_some(), "tokens must eventually return");
        let ds = deltas(p.take_frames());
        assert_eq!(ds.len(), 1, "accumulated diff flushes as one batch");
        assert_eq!(ds[0].entries.len(), 8, "nothing was dropped");
        assert!(
            ds[0].entries.iter().any(|e| e.id == 0 && e.e_cpu == 9),
            "coalesced entry carries the newest value"
        );
        assert!(p.stats().deltas_coalesced > 1);
    }

    #[test]
    fn span_stamps_trace_coalescing_delay() {
        let mut p = Periphery::new(1);
        p.handle_ack(&Ack {
            policy: Some(FleetPolicy {
                epoch: 1,
                rate_burst: 4,
                ..FleetPolicy::default()
            }),
            ..plain_ack(1, 0)
        });
        let states: Vec<(u32, u32, u64)> = (0..8).map(|i| (i, 1, 100)).collect();
        p.observe(&snap(1, &states), false, 0);
        let ds = deltas(p.take_frames());
        assert_eq!(ds[0].origin_tick, 1, "FULL data is fresh at the flush tick");
        assert_eq!(ds[0].trace_seq, 1);
        assert_eq!(ds[0].summary.frames, 1);
        assert_eq!(ds[0].summary.entries, 8);

        // A dry bucket coalesces at tick 2; when the flush finally
        // lands, origin_tick must still say 2 — the span measures the
        // whole coalescing delay, not just the last observation.
        let changed: Vec<(u32, u32, u64)> = (0..8).map(|i| (i, 2, 100)).collect();
        p.observe(&snap(2, &changed), false, 0);
        assert!(!p.has_frames());
        let mut flushed = None;
        for t in 3..64 {
            p.observe(&snap(t, &changed), false, 0);
            if p.has_frames() {
                flushed = Some(t);
                break;
            }
        }
        let flush_tick = flushed.expect("tokens must return");
        let ds = deltas(p.take_frames());
        assert_eq!(ds[0].origin_tick, 2, "origin survives coalescing");
        assert_eq!(ds[0].tick, flush_tick);
        assert!(ds[0].tick - ds[0].origin_tick >= 1, "delay is visible");
        assert_eq!(ds[0].trace_seq, 2, "trace seq is monotone per frame");
        assert_eq!(ds[0].summary.deltas_coalesced, p.stats().deltas_coalesced);
    }

    #[test]
    fn stale_epoch_acks_are_fenced() {
        let mut p = Periphery::new(1);
        p.observe(&snap(1, &[(1, 2, 100)]), false, 0);
        p.take_frames();
        assert_eq!(p.handle_ack(&plain_ack(1, 2)), AckDisposition::Applied);
        assert_eq!(p.ctl_epoch_seen(), 2);

        // A deposed primary (epoch 1) pushes a tempting policy and a
        // resync demand: both must be ignored wholesale.
        let stale = Ack {
            resync: true,
            policy: Some(FleetPolicy {
                epoch: 99,
                staleness_budget: 1,
                max_batch: 1,
                rate_burst: 1,
            }),
            ..plain_ack(1, 1)
        };
        assert_eq!(p.handle_ack(&stale), AckDisposition::Fenced);
        assert_eq!(p.stats().acks_fenced, 1);
        assert_eq!(p.policy(), FleetPolicy::default(), "policy not adopted");
        assert_eq!(p.stats().resyncs, 0, "resync not honoured");
        p.observe(&snap(2, &[(1, 3, 100)]), false, 0);
        let ds = deltas(p.take_frames());
        assert!(!ds[0].full, "no FULL was scheduled by the fenced ACK");

        // not_leader from a current-epoch controller: nothing applied
        // either, but the disposition says to walk the list.
        let nl = Ack {
            not_leader: true,
            ..plain_ack(1, 2)
        };
        assert_eq!(p.handle_ack(&nl), AckDisposition::NotLeader);
    }

    #[test]
    fn reconnect_rehellos_and_resyncs() {
        let mut p = Periphery::new(1);
        p.observe(&snap(1, &[(1, 2, 100)]), false, 0);
        p.take_frames();
        p.on_reconnect();
        assert_eq!(p.stats().failovers, 1);
        p.observe(&snap(2, &[(1, 2, 100)]), false, 0);
        let frames = p.take_frames();
        assert!(matches!(decode_frame(&frames[0]), Some(Frame::Hello(_))));
        let ds = deltas(frames);
        assert!(ds[0].full, "reconnect answers with a FULL snapshot");
    }

    mod fencing_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Arbitrary interleavings of stale-primary and
            /// promoted-standby ACKs: an ACK whose epoch is below the
            /// highest seen NEVER mutates periphery state.
            #[test]
            fn lower_epoch_acks_never_mutate(
                ops in prop::collection::vec(
                    (0u64..4, prop::bool::ANY, prop::bool::ANY, 1u64..8), 0..32),
            ) {
                let mut p = Periphery::new(1);
                p.observe(&snap(1, &[(1, 2, 100)]), false, 0);
                p.take_frames();
                let mut max_seen = 0u64;
                for (ctl_epoch, not_leader, resync, pepoch) in ops {
                    let before = (
                        p.policy(),
                        p.stats().resyncs,
                        p.stats().policy_updates,
                        p.ctl_epoch_seen(),
                    );
                    let d = p.handle_ack(&Ack {
                        host: 1,
                        expected_seq: 0,
                        ctl_epoch,
                        resync,
                        not_leader,
                        policy: Some(FleetPolicy {
                            epoch: pepoch,
                            ..FleetPolicy::default()
                        }),
                    });
                    if ctl_epoch < max_seen {
                        prop_assert_eq!(d, AckDisposition::Fenced);
                        let after = (
                            p.policy(),
                            p.stats().resyncs,
                            p.stats().policy_updates,
                            p.ctl_epoch_seen(),
                        );
                        prop_assert_eq!(before, after, "fenced ACK mutated state");
                    } else {
                        max_seen = ctl_epoch;
                        prop_assert!(d != AckDisposition::Fenced);
                    }
                    prop_assert_eq!(p.ctl_epoch_seen(), max_seen);
                }
            }
        }
    }
    #[test]
    fn a_repeated_id_is_its_last_occurrence() {
        let mut p = Periphery::new(1);
        p.observe(&snap(1, &[(2, 1, 100), (1, 1, 100), (2, 7, 100)]), false, 0);
        let ds = deltas(p.take_frames());
        let got: Vec<(u32, u32)> = ds[0].entries.iter().map(|e| (e.id, e.e_cpu)).collect();
        assert_eq!(got, vec![(1, 1), (2, 7)]);
        // The mirror holds one entry an id: nothing moved, nothing gone.
        p.observe(&snap(2, &[(1, 1, 100), (2, 7, 100)]), false, 0);
        let ds = deltas(p.take_frames());
        assert!(ds[0].entries.is_empty() && ds[0].removed.is_empty());
    }

    mod diff_props {
        use super::*;
        use crate::reference::HashMapPeriphery;
        use proptest::prelude::*;

        type Step = (
            Vec<(u32, u32, u64)>,
            (u8, bool, bool, u64),
            Option<(u32, u32)>,
            (u8, u32, u32),
            u8,
        );

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            // Arbitrary snapshot sequences — containers added, changed,
            // removed and re-added, a tenant set in mid-stream, snapshots
            // out of id order, resync demands, reconnects, durability
            // flips, stalls, a token bucket run dry and batches chunked
            // small: the merge-walk emits the frames and the stats of
            // the `HashMap` diff it replaced, byte for byte. So does a
            // third periphery fed only what moved between consecutive
            // snapshots — padded with ids that did not move, up to every
            // one, as a static refresh names them — whenever it needs no
            // whole snapshot and nothing left.
            #[test]
            fn merge_walk_equals_the_hashmap_diff(
                steps in prop::collection::vec(
                    (prop::collection::vec((0u32..12, 1u32..4, 1u64..3), 0..12),
                     (0u8..4, prop::bool::ANY, prop::bool::ANY, 0u64..2),
                     prop::option::of((0u32..12, 0u32..4)),
                     (0u8..12, 1u32..6, 1u32..10),
                     0u8..4),
                    1..40),
            ) {
                let mut new = Periphery::new(3);
                let mut moved = Periphery::new(3);
                let mut old = HashMapPeriphery::new(3);
                let mut tick = 0u64;
                let mut policy_epoch = 0u64;
                let mut last = std::collections::BTreeMap::new();
                let steps: Vec<Step> = steps;
                for (states, (order, advance, stalled, age), tenant, (event, batch, burst), pad) in steps {
                    if let Some((container, tenant)) = tenant {
                        new.set_tenant(container, tenant);
                        moved.set_tenant(container, tenant);
                        old.set_tenant(container, tenant);
                    }
                    let ack = |resync: bool, policy: Option<FleetPolicy>| Ack {
                        host: 3,
                        expected_seq: 0,
                        ctl_epoch: 0,
                        resync,
                        not_leader: false,
                        policy,
                    };
                    let ack = match event {
                        0 => Some(ack(true, None)),
                        1 | 2 => {
                            policy_epoch += 1;
                            Some(ack(false, Some(FleetPolicy {
                                epoch: policy_epoch,
                                max_batch: batch,
                                rate_burst: burst,
                                ..FleetPolicy::default()
                            })))
                        }
                        3 => {
                            new.on_reconnect();
                            moved.on_reconnect();
                            old.on_reconnect();
                            None
                        }
                        4 | 5 => {
                            new.set_durability(event == 4, u64::from(batch));
                            moved.set_durability(event == 4, u64::from(batch));
                            old.set_durability(event == 4, u64::from(batch));
                            None
                        }
                        _ => None,
                    };
                    if let Some(ack) = ack {
                        let applied = old.handle_ack(&ack);
                        prop_assert_eq!(new.handle_ack(&ack), applied);
                        prop_assert_eq!(moved.handle_ack(&ack), applied);
                    }
                    // One state an id (the last drawn), in id order or not.
                    let mut by_id = std::collections::BTreeMap::new();
                    for (id, cpu, mem) in states {
                        by_id.insert(id, (id, cpu, mem * 100));
                    }
                    let states: Vec<(u32, u32, u64)> = by_id.values().copied().collect();
                    tick += u64::from(advance);
                    let mut s = snap(tick, &states);
                    match order {
                        1 => s.entries.reverse(),
                        2 => {
                            let mid = s.entries.len() / 2;
                            s.entries.rotate_left(mid);
                        }
                        _ => {}
                    }
                    new.observe(&s, stalled, age);
                    old.observe(&s, stalled, age);
                    let left = last.keys().any(|id| !by_id.contains_key(id));
                    if moved.needs_snapshot() || left {
                        moved.observe(&s, stalled, age);
                    } else {
                        let list: Vec<ViewState> = s
                            .entries
                            .iter()
                            .enumerate()
                            .filter(|(i, e)| {
                                last.get(&e.id) != by_id.get(&e.id)
                                    || pad == 1
                                    || (pad == 2 && i % 2 == 0)
                            })
                            .map(|(_, e)| *e)
                            .collect();
                        moved.observe_moved(tick, &list, stalled, age);
                    }
                    last = by_id;
                    let frames = old.take_frames();
                    prop_assert_eq!(new.take_frames(), frames.clone());
                    prop_assert_eq!(moved.take_frames(), frames);
                    prop_assert_eq!(new.stats(), old.stats());
                    prop_assert_eq!(moved.stats(), old.stats());
                }
            }
        }
    }

    impl Periphery {
        /// Whether frames are waiting to be drained.
        fn has_frames(&self) -> bool {
            !self.outbox.is_empty()
        }
    }
}

//! `ns_monitor`: the system-wide daemon that keeps every `sys_namespace`
//! current.
//!
//! Two update paths exist, exactly as in §3.1–3.2 of the paper:
//!
//! * **cgroup events** (container creation/termination, limit changes) —
//!   [`NsMonitor::sync`] drains the cgroup manager's event log and
//!   recomputes every namespace's *static* inputs: the CPU bounds
//!   (which depend on the share total over all containers, so one
//!   container's arrival moves everyone's lower bound) and the memory
//!   limits;
//! * **the update timer** — [`NsMonitor::tick`] fires once per scheduling
//!   period and advances the *dynamic* state machines from scheduler and
//!   memory-manager observations.

use arv_cfs::UsageLedger;
use arv_cgroups::{Bytes, CgroupEvent, CgroupId, CgroupManager, CpuSet, IdMap, SeqEvent};
use arv_mem::{MemSim, Watermarks};
use arv_persist::ViewState;
use arv_sim_core::SimDuration;
use arv_telemetry::{CpuDecision, DecisionCause, MemDecision, PipelineEvent, Tracer};

use crate::effective_cpu::{CpuBounds, CpuSample, EffectiveCpuConfig};
use crate::effective_mem::{EffectiveMemory, EffectiveMemoryConfig, MemSample};
use crate::namespace::{Pid, SysNamespace};

/// Outcome of one [`NsMonitor::ingest`] round over sequence-numbered
/// events. A `gap` means at least one event was lost in transit — the
/// incremental stream can no longer be trusted and the caller (usually
/// via the [`Watchdog`](crate::watchdog::Watchdog)) should run
/// [`NsMonitor::resync`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Events applied this round.
    pub applied: usize,
    /// Events skipped because their sequence number was already seen.
    pub duplicates: u64,
    /// Whether a sequence gap (lost event) was observed.
    pub gap: bool,
}

/// Outcome of one [`NsMonitor::recover`] warm-restart pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverOutcome {
    /// Containers resumed from the journaled snapshot.
    pub restored: usize,
    /// Restored views that had to be reconciled: the journaled value
    /// fell outside the freshly recomputed bounds and was clamped.
    pub reconciled: usize,
    /// Snapshot entries dropped because their cgroup vanished while the
    /// monitor was down.
    pub dropped: usize,
    /// Live cgroups absent from the snapshot, admitted cold at the
    /// lower bounds.
    pub admitted: usize,
}

/// The monitor daemon: the one updater of every container's
/// `sys_namespace`. Drivers mirror its views into the lock-free
/// [`crate::live`] cells that query threads read. Its namespaces are an
/// [`IdMap`], like the ledger's and the memory manager's groups, so a
/// firing strides through three id-sorted arrays side by side.
#[derive(Debug, Clone)]
pub struct NsMonitor {
    online: CpuSet,
    host_total: Bytes,
    watermarks: Watermarks,
    cpu_cfg: EffectiveCpuConfig,
    mem_cfg: EffectiveMemoryConfig,
    namespaces: IdMap<SysNamespace>,
    /// The views a firing moved since the last [`NsMonitor::take_moved`],
    /// as values, in id order.
    moved: Vec<ViewState>,
    /// Static inputs were recomputed since the last drain, so any view
    /// may have moved: the drain walks every namespace instead.
    all_moved: bool,
    next_pid: u32,
    now_tick: u64,
    /// Tick of the last healthy firing, which refreshes every namespace.
    fresh_tick: u64,
    next_seq: u64,
    tracer: Tracer,
}

impl NsMonitor {
    /// A monitor with no namespaces yet, for a host with `online` CPUs,
    /// `host_total` memory and kswapd's `watermarks`, running
    /// Algorithms 1 and 2 with the given tunables.
    pub fn new(
        online: CpuSet,
        host_total: Bytes,
        watermarks: Watermarks,
        cpu_cfg: EffectiveCpuConfig,
        mem_cfg: EffectiveMemoryConfig,
    ) -> NsMonitor {
        NsMonitor {
            online,
            host_total,
            watermarks,
            cpu_cfg,
            mem_cfg,
            namespaces: IdMap::new(),
            moved: Vec::new(),
            all_moved: false,
            next_pid: 1,
            now_tick: 0,
            fresh_tick: 0,
            next_seq: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Install a [`Tracer`]; every subsequent view change carries its
    /// decision provenance into the shared trace ring. The default is a
    /// disabled (no-op) tracer.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The monitor's tracer (disabled unless
    /// [`set_tracer`](NsMonitor::set_tracer) installed one).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Convenience constructor with the paper's default thresholds.
    pub fn with_defaults(online: CpuSet, host_total: Bytes, watermarks: Watermarks) -> NsMonitor {
        NsMonitor::new(
            online,
            host_total,
            watermarks,
            EffectiveCpuConfig::default(),
            EffectiveMemoryConfig::default(),
        )
    }

    /// The container's namespace, if it has one.
    pub fn namespace(&self, id: CgroupId) -> Option<&SysNamespace> {
        self.namespaces.get(&id)
    }

    /// Mutable access to the container's namespace.
    pub fn namespace_mut(&mut self, id: CgroupId) -> Option<&mut SysNamespace> {
        self.namespaces.get_mut(&id)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.namespaces.len()
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.namespaces.is_empty()
    }

    /// Drain the moved views: each live container whose value triple
    /// `(e_cpu, e_mem, e_avail)` moved since the previous call, once, in
    /// id order, as it stands now (the entry [`snapshot`] would hold).
    /// A timer firing records exactly the views it changed; anything
    /// that recomputes static inputs (cgroup events, resync, recover)
    /// names every container, since any clamp may have moved, and so
    /// does a second firing before the drain. Consumers that persist or
    /// ship views act on these and skip the rest.
    ///
    /// [`snapshot`]: NsMonitor::snapshot
    pub fn take_moved(&mut self) -> Vec<ViewState> {
        if std::mem::take(&mut self.all_moved) {
            self.moved.clear();
            return self.snapshot().entries;
        }
        std::mem::take(&mut self.moved)
    }

    /// The monitor's notion of "now", in update-timer firings.
    pub fn now_tick(&self) -> u64 {
        self.now_tick
    }

    /// Tick of the monitor's last healthy firing (or warm restart): every
    /// namespace's views are that old. A stalled monitor stalls them all.
    pub fn fresh_tick(&self) -> u64 {
        self.fresh_tick
    }

    /// Advance the monitor's clock by one update-timer firing.
    ///
    /// The driver calls this on *every* firing, including ones where the
    /// monitor is stalled and does no work — the clock models the timer,
    /// not the work, so view ages keep growing while the monitor is
    /// wedged and staleness classification stays honest.
    pub fn observe_tick(&mut self) {
        self.now_tick += 1;
    }

    /// Drain pending cgroup events and refresh static inputs.
    ///
    /// Any create/remove/update changes the share denominator `Σ w_j`, so
    /// bounds are recomputed for *every* namespace whenever at least one
    /// event arrived.
    pub fn sync(&mut self, cgm: &mut CgroupManager) {
        let events = cgm.drain_events();
        if events.is_empty() {
            return;
        }
        for ev in &events {
            match ev {
                CgroupEvent::Created(id) => self.create_namespace(*id, cgm),
                CgroupEvent::Removed(id) => {
                    if self.namespaces.remove(id).is_some() {
                        self.tracer.emit_pipeline(
                            self.now_tick,
                            Some(*id),
                            PipelineEvent::ContainerRemoved,
                        );
                    }
                }
                CgroupEvent::Updated(_) => {}
            }
        }
        self.recompute_all(cgm, DecisionCause::StaticRefresh);
    }

    /// Apply a batch of sequence-numbered events (delivered through an
    /// [`arv_cgroups::EventPipe`]), detecting loss and duplication.
    ///
    /// Duplicated events (sequence already consumed) are skipped —
    /// re-creating an existing namespace would reset its dynamic state.
    /// A sequence number beyond the expected one means events were lost;
    /// the batch is still applied best-effort, but the report flags the
    /// gap so the caller can schedule a [`resync`](NsMonitor::resync).
    /// Reordered deliveries surface as a gap too, which is the safe,
    /// conservative reading.
    pub fn ingest(&mut self, events: &[SeqEvent], cgm: &CgroupManager) -> IngestReport {
        let mut report = IngestReport::default();
        for ev in events {
            if ev.seq < self.next_seq {
                report.duplicates += 1;
                continue;
            }
            if ev.seq > self.next_seq {
                report.gap = true;
            }
            self.next_seq = ev.seq + 1;
            match ev.event {
                CgroupEvent::Created(id) => self.create_namespace(id, cgm),
                CgroupEvent::Removed(id) => {
                    if self.namespaces.remove(&id).is_some() {
                        self.tracer.emit_pipeline(
                            self.now_tick,
                            Some(id),
                            PipelineEvent::ContainerRemoved,
                        );
                    }
                }
                CgroupEvent::Updated(_) => {}
            }
            report.applied += 1;
        }
        if report.gap {
            self.tracer
                .emit_pipeline(self.now_tick, None, PipelineEvent::GapDetected);
        }
        if report.applied > 0 {
            self.recompute_all(cgm, DecisionCause::StaticRefresh);
        }
        report
    }

    /// Full reconcile pass: rescan the cgroup hierarchy from scratch.
    ///
    /// Any pending incremental events are discarded (the rescan
    /// supersedes them): namespaces for departed cgroups are dropped,
    /// missing namespaces are created, and every static bound is
    /// recomputed. After a resync the monitor's view of the hierarchy is
    /// correct regardless of how many events were lost.
    pub fn resync(&mut self, cgm: &mut CgroupManager) {
        let _ = cgm.drain_events();
        let tracer = self.tracer.clone();
        let now = self.now_tick;
        self.namespaces.retain(|id, _| {
            let keep = cgm.contains(*id);
            if !keep {
                tracer.emit_pipeline(now, Some(*id), PipelineEvent::ContainerRemoved);
            }
            keep
        });
        let live: Vec<CgroupId> = cgm.iter().map(|(id, _)| id).collect();
        for id in live {
            self.create_namespace(id, cgm);
        }
        self.recompute_all(cgm, DecisionCause::WatchdogResync);
        self.tracer
            .emit_pipeline(self.now_tick, None, PipelineEvent::Resynced);
    }

    /// Capture every namespace's dynamic view for journaling.
    ///
    /// The snapshot records only the *dynamic* state (effective CPU and
    /// memory, availability, the monitor's one refresh tick); static
    /// bounds and limits are deliberately not persisted — on recovery
    /// they are recomputed from the live cgroup hierarchy, the authority.
    pub fn snapshot(&self) -> arv_persist::Snapshot {
        arv_persist::Snapshot {
            tick: self.now_tick,
            entries: self
                .namespaces
                .values()
                .map(|ns| view_state(ns, self.fresh_tick))
                .collect(),
        }
    }

    /// Warm restart: rebuild membership from the live cgroup hierarchy,
    /// then resume dynamic views from a journaled `snapshot` instead of
    /// the cold lower bounds.
    ///
    /// Reconcile rules, in order:
    ///
    /// 1. membership follows the hierarchy — namespaces for vanished
    ///    cgroups are dropped, cgroups missing a namespace get one
    ///    (admitted cold at the lower bounds);
    /// 2. restored values are clamped into the **freshly recomputed**
    ///    static bounds (shares, quotas and limits may have changed
    ///    while the monitor was down);
    /// 3. snapshot entries for vanished cgroups are discarded.
    ///
    /// Emits a [`DecisionCause::Restored`] (or
    /// [`DecisionCause::RestoreReconciled`] when the clamp moved the
    /// journaled value) provenance record per resumed view, and one
    /// [`PipelineEvent::Restored`] for the pass itself.
    pub fn recover(
        &mut self,
        snapshot: &arv_persist::Snapshot,
        cgm: &mut CgroupManager,
    ) -> RecoverOutcome {
        let _ = cgm.drain_events();
        let tracer = self.tracer.clone();
        let now = self.now_tick;
        self.namespaces.retain(|id, _| {
            let keep = cgm.contains(*id);
            if !keep {
                tracer.emit_pipeline(now, Some(*id), PipelineEvent::ContainerRemoved);
            }
            keep
        });
        let live: Vec<CgroupId> = cgm.iter().map(|(id, _)| id).collect();
        for id in live {
            self.create_namespace(id, cgm);
        }
        // Fresh static inputs first: restored values clamp against the
        // hierarchy as it is *now*, not as it was journaled.
        self.recompute_all(cgm, DecisionCause::StaticRefresh);

        let mut out = RecoverOutcome::default();
        for entry in &snapshot.entries {
            let id = CgroupId(entry.id);
            let Some(ns) = self.namespaces.get_mut(&id) else {
                out.dropped += 1;
                continue;
            };
            let cpu_before = ns.effective_cpu();
            let mem_before = ns.effective_memory();
            let (cpu_after, mem_after) = ns.restore_views(entry.e_cpu, Bytes(entry.e_mem));
            out.restored += 1;
            let clamped = cpu_after != entry.e_cpu || mem_after != Bytes(entry.e_mem);
            if clamped {
                out.reconciled += 1;
            }
            let cause = if clamped {
                DecisionCause::RestoreReconciled
            } else {
                DecisionCause::Restored
            };
            if cpu_after != cpu_before {
                self.tracer.emit_cpu(
                    self.now_tick,
                    id,
                    CpuDecision {
                        cause,
                        before: cpu_before,
                        after: cpu_after,
                        utilization: 0.0,
                        had_slack: false,
                    },
                );
            }
            if mem_after != mem_before {
                self.tracer.emit_mem(
                    self.now_tick,
                    id,
                    MemDecision {
                        cause,
                        before: mem_before,
                        after: mem_after,
                        usage: Bytes(0),
                        free: Bytes(0),
                    },
                );
            }
        }
        out.admitted = self
            .namespaces
            .keys()
            .filter(|id| snapshot.get(id.0).is_none())
            .count();
        // Every namespace is restored or admitted as of now.
        self.fresh_tick = self.now_tick;
        self.tracer
            .emit_pipeline(self.now_tick, None, PipelineEvent::Restored);
        out
    }

    /// Align the expected event sequence number (after a resync, the
    /// driver passes its pipe's `next_seq` so already-superseded events
    /// are not misread as a fresh gap).
    pub fn align_seq(&mut self, next_seq: u64) {
        self.next_seq = next_seq;
    }

    /// Align the tick counter (after a warm restart: the update timer's
    /// cadence is host-side and survives the daemon, so a replacement
    /// monitor resumes the old clock instead of restarting at zero —
    /// otherwise every served view would look impossibly fresh). What
    /// the replacement then builds or restores is current as of `tick`.
    pub fn align_tick(&mut self, tick: u64) {
        self.now_tick = tick;
        self.fresh_tick = tick;
    }

    fn create_namespace(&mut self, id: CgroupId, cgm: &CgroupManager) {
        if self.namespaces.contains_key(&id) {
            // Duplicate create (replayed event): the namespace's dynamic
            // state must survive, so this is a no-op.
            return;
        }
        let Some(spec) = cgm.get(id) else { return };
        let bounds = CpuBounds::compute(&spec.cpu, cgm.total_shares(), self.online);
        let soft = spec.mem.soft_limit_or(self.host_total);
        let hard = spec.mem.hard_limit_or(self.host_total);
        let e_mem = EffectiveMemory::new(
            soft,
            hard,
            self.watermarks.low,
            self.watermarks.high,
            self.mem_cfg,
        );
        let owner = Pid(self.next_pid);
        self.next_pid += 1;
        let ns = SysNamespace::new(id, owner, bounds, self.cpu_cfg, e_mem);
        self.namespaces.insert(id, ns);
        self.tracer
            .emit_pipeline(self.now_tick, Some(id), PipelineEvent::ContainerCreated);
    }

    /// Refresh every namespace's static inputs, emitting a provenance
    /// record (with `cause`: static refresh vs. watchdog resync) for
    /// each view the clamp actually moved.
    fn recompute_all(&mut self, cgm: &CgroupManager, cause: DecisionCause) {
        let total_shares = cgm.total_shares();
        self.all_moved = true;
        self.moved.clear();
        for (id, ns) in self.namespaces.iter_mut() {
            if let Some(spec) = cgm.get(*id) {
                let cpu_before = ns.effective_cpu();
                let mem_before = ns.effective_memory();
                ns.set_cpu_bounds(CpuBounds::compute(&spec.cpu, total_shares, self.online));
                ns.set_mem_limits(
                    spec.mem.soft_limit_or(self.host_total),
                    spec.mem.hard_limit_or(self.host_total),
                );
                let cpu_after = ns.effective_cpu();
                let mem_after = ns.effective_memory();
                if cpu_after != cpu_before {
                    self.tracer.emit_cpu(
                        self.now_tick,
                        *id,
                        CpuDecision {
                            cause,
                            before: cpu_before,
                            after: cpu_after,
                            utilization: 0.0,
                            had_slack: false,
                        },
                    );
                }
                if mem_after != mem_before {
                    self.tracer.emit_mem(
                        self.now_tick,
                        *id,
                        MemDecision {
                            cause,
                            before: mem_before,
                            after: mem_after,
                            usage: Bytes(0),
                            free: Bytes(0),
                        },
                    );
                }
            }
        }
    }

    /// Periodic update: advance every namespace from the last scheduling
    /// period's CPU accounting and the memory manager's current state.
    pub fn tick(&mut self, ledger: &UsageLedger, mem: &MemSim) {
        let (period, slack) = (ledger.last_period(), ledger.last_slack());
        self.fire(period, slack, ledger.last_usages(), mem);
    }

    /// Update-timer firing over the ledger's accumulated window (used by
    /// event-driven drivers whose steps are shorter than one scheduling
    /// period).
    pub fn tick_window(&mut self, ledger: &UsageLedger, mem: &MemSim) {
        let (period, slack) = (ledger.window_time(), ledger.window_slack());
        self.fire(period, slack, ledger.window_usages(), mem);
    }

    /// One update-timer firing. Host-wide state (`period`, `slack`, free
    /// memory, kswapd) is sampled once, so every namespace judges the
    /// same instant, and the per-container usages (`cpu_usage`, the
    /// memory manager's) arrive as id-ordered streams over the ledger's
    /// and the memory manager's id-sorted arrays, merged (`seek`) beside
    /// the namespaces' own array — no per-namespace lookup and no tree
    /// to chase, so the firing costs the same per container at any
    /// population. Each namespace whose value triple moved is recorded
    /// while the loop holds it; freshness is one store.
    fn fire(
        &mut self,
        period: SimDuration,
        slack: SimDuration,
        cpu_usage: impl Iterator<Item = (CgroupId, SimDuration)>,
        mem: &MemSim,
    ) {
        if period.is_zero() {
            return; // nothing scheduled yet
        }
        let mut cpu_usage = cpu_usage.peekable();
        let (mut mem_usage, free, reclaiming) =
            (mem.usages().peekable(), mem.free(), mem.is_reclaiming());
        self.fresh_tick = self.now_tick;
        // An undrained list would name an id twice: fold it into
        // "everything moved", which the drain reads once.
        if !self.moved.is_empty() {
            self.all_moved = true;
            self.moved.clear();
        }
        let record = !self.all_moved;
        for (id, ns) in self.namespaces.iter_mut() {
            let before = ns.views();
            let cpu_d = ns.update_cpu_explained(CpuSample {
                usage: seek(&mut cpu_usage, *id).unwrap_or(SimDuration::ZERO),
                period,
                slack,
            });
            let mem_d = ns.update_mem_explained(MemSample {
                free,
                usage: seek(&mut mem_usage, *id).unwrap_or(Bytes::ZERO),
                reclaiming,
            });
            if let Some(d) = cpu_d {
                self.tracer.emit_cpu(self.now_tick, *id, d);
            }
            if let Some(d) = mem_d {
                self.tracer.emit_mem(self.now_tick, *id, d);
            }
            if record && ns.views() != before {
                self.moved.push(view_state(ns, self.fresh_tick));
            }
        }
    }
}

/// `ns`'s journaled form: its value triple, stamped with the monitor's
/// refresh tick `fresh`.
fn view_state(ns: &SysNamespace, fresh: u64) -> ViewState {
    let (e_cpu, e_mem, e_avail) = ns.views();
    ViewState {
        id: ns.id().0,
        e_cpu,
        e_mem: e_mem.as_u64(),
        e_avail: e_avail.as_u64(),
        last_tick: fresh,
    }
}

/// Advance an id-ordered stream to `id`; its value there, if it has one.
fn seek<V>(
    sorted: &mut std::iter::Peekable<impl Iterator<Item = (CgroupId, V)>>,
    id: CgroupId,
) -> Option<V> {
    while sorted.next_if(|(k, _)| *k < id).is_some() {}
    sorted.next_if(|(k, _)| *k == id).map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arv_cfs::{CfsSim, GroupDemand};
    use arv_cgroups::{CgroupSpec, CpuController, MemController};
    use arv_mem::MemSimConfig;
    use arv_telemetry::EventKind;

    const P: SimDuration = SimDuration::from_millis(24);

    fn e_cpu(mon: &NsMonitor, id: CgroupId) -> Option<u32> {
        mon.namespace(id).map(SysNamespace::effective_cpu)
    }

    fn testbed() -> (CgroupManager, NsMonitor, CfsSim, MemSim, UsageLedger) {
        let cfs = CfsSim::with_cpus(20);
        let mem = MemSim::new(MemSimConfig::paper_testbed());
        let monitor = NsMonitor::with_defaults(cfs.online(), mem.total(), *mem.watermarks());
        (CgroupManager::new(), monitor, cfs, mem, UsageLedger::new())
    }

    fn paper_spec() -> CgroupSpec {
        CgroupSpec::new(
            CpuController::unlimited(20).with_quota_cpus(10.0),
            MemController::unlimited(),
        )
    }

    #[test]
    fn sync_creates_namespaces_with_paper_bounds() {
        let (mut cgm, mut mon, _, mut mem, _) = testbed();
        let ids: Vec<CgroupId> = (0..5).map(|_| cgm.create(paper_spec())).collect();
        for id in &ids {
            mem.register(*id, MemController::unlimited());
        }
        mon.sync(&mut cgm);
        assert_eq!(mon.len(), 5);
        // 5 equal-share containers on 20 cores with a 10-core limit:
        // lower = 4, E starts at 4.
        for id in &ids {
            let ns = mon.namespace(*id).unwrap();
            assert_eq!(
                ns.cpu_bounds(),
                CpuBounds {
                    lower: 4,
                    upper: 10
                }
            );
            assert_eq!(ns.effective_cpu(), 4);
        }
    }

    #[test]
    fn container_churn_moves_everyones_lower_bound() {
        let (mut cgm, mut mon, _, _, _) = testbed();
        let a = cgm.create(paper_spec());
        mon.sync(&mut cgm);
        // Alone: lower = min(10, 20, ceil(1·20)) = 10.
        assert_eq!(mon.namespace(a).unwrap().cpu_bounds().lower, 10);
        let b = cgm.create(paper_spec());
        mon.sync(&mut cgm);
        // Two equal containers: ceil(20/2) = 10 → still 10.
        assert_eq!(mon.namespace(a).unwrap().cpu_bounds().lower, 10);
        for _ in 0..3 {
            cgm.create(paper_spec());
        }
        mon.sync(&mut cgm);
        // Five containers: ceil(20/5) = 4.
        assert_eq!(mon.namespace(a).unwrap().cpu_bounds().lower, 4);
        assert_eq!(mon.namespace(b).unwrap().cpu_bounds().lower, 4);
    }

    #[test]
    fn removal_restores_bounds_and_drops_namespace() {
        let (mut cgm, mut mon, _, _, _) = testbed();
        let a = cgm.create(paper_spec());
        let b = cgm.create(paper_spec());
        let c = cgm.create(paper_spec());
        let d = cgm.create(paper_spec());
        let e = cgm.create(paper_spec());
        mon.sync(&mut cgm);
        assert_eq!(mon.namespace(a).unwrap().cpu_bounds().lower, 4);
        for id in [b, c, d, e] {
            cgm.remove(id);
        }
        mon.sync(&mut cgm);
        assert_eq!(mon.len(), 1);
        assert_eq!(mon.namespace(a).unwrap().cpu_bounds().lower, 10);
        assert!(mon.namespace(b).is_none());
    }

    #[test]
    fn tick_drives_effective_cpu_growth() {
        let (mut cgm, mut mon, cfs, mut mem, mut ledger) = testbed();
        // Five sibling cgroups (lower bound 4 for each); only `a` runs, so
        // it can expand into the others' slack.
        let a = cgm.create(paper_spec());
        for _ in 0..4 {
            cgm.create(paper_spec());
        }
        mem.register(a, MemController::unlimited());
        mon.sync(&mut cgm);
        assert_eq!(e_cpu(&mon, a), Some(4));
        for _ in 0..10 {
            let demand = GroupDemand::cpu_bound(a, 20, 1024, 10.0);
            let alloc = cfs.allocate(P, &[demand]);
            ledger.record(&alloc);
            mon.tick(&ledger, &mem);
        }
        // With slack and saturation, E climbs to the 10-core upper bound.
        assert_eq!(e_cpu(&mon, a), Some(10));
    }

    #[test]
    fn removal_between_ticks_leaves_no_stale_namespace() {
        let (mut cgm, mut mon, cfs, mut mem, mut ledger) = testbed();
        let a = cgm.create(paper_spec());
        let b = cgm.create(paper_spec());
        for id in [a, b] {
            mem.register(id, MemController::unlimited());
        }
        mon.sync(&mut cgm);
        // One tick with both containers running.
        let demands = [
            GroupDemand::cpu_bound(a, 20, 1024, 10.0),
            GroupDemand::cpu_bound(b, 20, 1024, 10.0),
        ];
        ledger.record(&cfs.allocate(P, &demands));
        mon.tick(&ledger, &mem);
        let e_a_before = e_cpu(&mon, a).unwrap();
        // `b` disappears between ticks; the ledger still carries its
        // last-window usage when the next tick fires.
        cgm.remove(b);
        mem.unregister(b);
        mon.sync(&mut cgm);
        assert_eq!(mon.len(), 1);
        assert!(mon.namespace(b).is_none());
        assert!(e_cpu(&mon, b).is_none());
        ledger.record(&cfs.allocate(P, &demands[..1]));
        mon.tick(&ledger, &mem);
        // No stale update resurrected `b`, and `a` keeps adapting —
        // alone now, its bounds opened up to the full 10-core quota.
        assert_eq!(mon.len(), 1);
        assert!(mon.namespace(b).is_none());
        assert!(e_cpu(&mon, a).unwrap() >= e_a_before);
        assert_eq!(mon.namespace(a).unwrap().cpu_bounds().lower, 10);
    }

    #[test]
    fn tick_before_any_allocation_is_harmless() {
        let (mut cgm, mut mon, _, mem, ledger) = testbed();
        let a = cgm.create(paper_spec());
        mon.sync(&mut cgm);
        mon.tick(&ledger, &mem);
        assert_eq!(e_cpu(&mon, a), Some(10));
    }

    #[test]
    fn update_event_refreshes_limits() {
        let (mut cgm, mut mon, _, _, _) = testbed();
        let a = cgm.create(paper_spec());
        mon.sync(&mut cgm);
        assert_eq!(mon.namespace(a).unwrap().cpu_bounds().upper, 10);
        cgm.update(
            a,
            CgroupSpec::new(
                CpuController::unlimited(20).with_quota_cpus(2.0),
                MemController::unlimited().with_hard_limit(Bytes::from_gib(1)),
            ),
        );
        mon.sync(&mut cgm);
        let ns = mon.namespace(a).unwrap();
        assert_eq!(ns.cpu_bounds().upper, 2);
        assert_eq!(ns.effective_memory(), Bytes::from_gib(1));
    }

    #[test]
    fn sync_without_events_is_noop() {
        let (mut cgm, mut mon, _, _, _) = testbed();
        let a = cgm.create(paper_spec());
        mon.sync(&mut cgm);
        let before = mon.namespace(a).unwrap().cpu_bounds();
        mon.sync(&mut cgm); // no new events
        assert_eq!(mon.namespace(a).unwrap().cpu_bounds(), before);
    }

    /// Drain the manager through a pipe, numbering events as the host
    /// driver would.
    fn pump(
        cgm: &mut CgroupManager,
        pipe: &mut arv_cgroups::EventPipe,
    ) -> Vec<arv_cgroups::SeqEvent> {
        for ev in cgm.drain_events() {
            pipe.push(ev);
        }
        pipe.drain()
    }

    #[test]
    fn ingest_tracks_sequence_and_applies_events() {
        let (mut cgm, mut mon, _, _, _) = testbed();
        let mut pipe = arv_cgroups::EventPipe::new(16);
        let a = cgm.create(paper_spec());
        let b = cgm.create(paper_spec());
        let events = pump(&mut cgm, &mut pipe);
        let rep = mon.ingest(&events, &cgm);
        assert_eq!(rep.applied, 2);
        assert_eq!(rep.duplicates, 0);
        assert!(!rep.gap);
        assert_eq!(mon.len(), 2);
        assert!(mon.namespace(a).is_some() && mon.namespace(b).is_some());
    }

    #[test]
    fn ingest_skips_duplicates_without_resetting_state() {
        let (mut cgm, mut mon, cfs, mut mem, mut ledger) = testbed();
        let mut pipe = arv_cgroups::EventPipe::new(16);
        let a = cgm.create(paper_spec());
        mem.register(a, MemController::unlimited());
        let events = pump(&mut cgm, &mut pipe);
        mon.ingest(&events, &cgm);
        // Grow the dynamic view past its initial value.
        for _ in 0..3 {
            let alloc = cfs.allocate(P, &[GroupDemand::cpu_bound(a, 20, 1024, 10.0)]);
            ledger.record(&alloc);
            mon.tick(&ledger, &mem);
        }
        let grown = e_cpu(&mon, a).unwrap();
        // Replay the Created event (duplicate delivery).
        let rep = mon.ingest(&events, &cgm);
        assert_eq!(rep.duplicates, 1);
        assert_eq!(rep.applied, 0);
        assert_eq!(e_cpu(&mon, a), Some(grown), "duplicate reset state");
    }

    #[test]
    fn ingest_reports_gap_on_lost_event() {
        let (mut cgm, mut mon, _, _, _) = testbed();
        let mut pipe = arv_cgroups::EventPipe::new(16);
        cgm.create(paper_spec());
        cgm.create(paper_spec());
        let mut events = pump(&mut cgm, &mut pipe);
        events.remove(0); // lose the first Created in transit
        let rep = mon.ingest(&events, &cgm);
        assert!(rep.gap);
        assert_eq!(rep.applied, 1);
        assert_eq!(mon.len(), 1, "lost create not yet reconciled");
    }

    #[test]
    fn resync_recreates_missing_and_drops_orphans() {
        let (mut cgm, mut mon, _, _, _) = testbed();
        let ids: Vec<CgroupId> = (0..4).map(|_| cgm.create(paper_spec())).collect();
        mon.sync(&mut cgm);
        assert_eq!(mon.len(), 4);
        // Simulate event loss in both directions: a removal whose event
        // vanishes (orphan namespace) and a creation whose event
        // vanishes (missing namespace).
        cgm.remove(ids[1]);
        let late = cgm.create(paper_spec());
        let _ = cgm.drain_events(); // events lost
        mon.sync(&mut cgm); // nothing to apply — monitor is now wrong
        assert!(mon.namespace(ids[1]).is_some(), "orphan still present");
        assert!(mon.namespace(late).is_none(), "new container missing");

        mon.resync(&mut cgm);
        assert!(mon.namespace(ids[1]).is_none(), "orphan survived resync");
        assert!(mon.namespace(late).is_some(), "missing ns not recreated");
        assert_eq!(mon.len(), 4);
    }

    #[test]
    fn resync_matches_from_scratch_sync() {
        // After arbitrary loss, a resynced monitor must agree with a
        // fresh monitor built from the same hierarchy via sync.
        let (mut cgm, mut mon, _, _, _) = testbed();
        let a = cgm.create(paper_spec());
        mon.sync(&mut cgm);
        cgm.remove(a);
        let ids: Vec<CgroupId> = (0..3).map(|_| cgm.create(paper_spec())).collect();
        cgm.update(
            ids[0],
            CgroupSpec::new(
                CpuController::unlimited(20).with_quota_cpus(2.0),
                MemController::unlimited().with_hard_limit(Bytes::from_gib(1)),
            ),
        );
        let _ = cgm.drain_events(); // every event lost
        mon.resync(&mut cgm);

        let (_, mut fresh, _, _, _) = testbed();
        // Replay the hierarchy into a fresh manager so `sync` sees it.
        let mut cgm2 = CgroupManager::new();
        // Burn ids so the two managers agree on numbering.
        let burned = cgm2.create(paper_spec());
        cgm2.remove(burned);
        for _ in 0..3 {
            cgm2.create(paper_spec());
        }
        cgm2.update(
            ids[0],
            CgroupSpec::new(
                CpuController::unlimited(20).with_quota_cpus(2.0),
                MemController::unlimited().with_hard_limit(Bytes::from_gib(1)),
            ),
        );
        fresh.sync(&mut cgm2);

        assert_eq!(mon.len(), fresh.len());
        for id in &ids {
            let (r, f) = (mon.namespace(*id).unwrap(), fresh.namespace(*id).unwrap());
            assert_eq!(r.cpu_bounds(), f.cpu_bounds(), "{id:?} bounds differ");
            assert_eq!(r.effective_cpu(), f.effective_cpu());
            assert_eq!(r.effective_memory(), f.effective_memory());
        }
    }

    #[test]
    fn recover_resumes_views_from_snapshot_not_floor() {
        let (mut cgm, mut mon, cfs, mut mem, mut ledger) = testbed();
        let a = cgm.create(paper_spec());
        for _ in 0..4 {
            cgm.create(paper_spec());
        }
        mem.register(a, MemController::unlimited());
        mon.sync(&mut cgm);
        for _ in 0..10 {
            mon.observe_tick();
            ledger.record(&cfs.allocate(P, &[GroupDemand::cpu_bound(a, 20, 1024, 10.0)]));
            mon.tick(&ledger, &mem);
        }
        assert_eq!(e_cpu(&mon, a), Some(10));
        let snap = mon.snapshot();
        assert_eq!(snap.get(a.0).unwrap().e_cpu, 10);

        // Cold restart: a fresh monitor would serve the 4-CPU floor.
        let (_, mut fresh, _, _, _) = testbed();
        let out = fresh.recover(&snap, &mut cgm);
        assert_eq!(out.restored, 5);
        assert_eq!(out.dropped, 0);
        assert_eq!(out.admitted, 0);
        assert_eq!(
            e_cpu(&fresh, a),
            Some(10),
            "warm restart must resume the converged view"
        );
    }

    #[test]
    fn recover_reconciles_against_current_hierarchy() {
        let (mut cgm, mut mon, _, _, _) = testbed();
        let a = cgm.create(paper_spec());
        let b = cgm.create(paper_spec());
        mon.sync(&mut cgm);
        let mut snap = mon.snapshot();
        // Doctor the journal: claim `a` had converged to 16 CPUs —
        // beyond today's 10-CPU quota — and include a vanished
        // container.
        if let Some(e) = snap.entries.iter_mut().find(|e| e.id == a.0) {
            e.e_cpu = 16;
        }
        snap.entries.push(arv_persist::ViewState {
            id: 999,
            e_cpu: 8,
            e_mem: 1 << 30,
            e_avail: 1 << 29,
            last_tick: 0,
        });
        snap.entries.sort_by_key(|e| e.id);
        // Meanwhile a new container arrived that the journal never saw.
        let late = cgm.create(paper_spec());

        let (_, mut fresh, _, _, _) = testbed();
        let out = fresh.recover(&snap, &mut cgm);
        assert_eq!(out.restored, 2);
        assert_eq!(out.reconciled, 1, "16 CPUs clamped to the quota");
        assert_eq!(out.dropped, 1, "vanished container discarded");
        assert_eq!(out.admitted, 1, "late container admitted cold");
        assert_eq!(e_cpu(&fresh, a), Some(10), "clamped to fresh upper");
        assert!(fresh.namespace(b).is_some());
        let late_ns = fresh.namespace(late).unwrap();
        assert_eq!(
            late_ns.effective_cpu(),
            late_ns.cpu_bounds().lower,
            "unjournaled container starts at the floor"
        );
        assert!(fresh.namespace(CgroupId(999)).is_none());
    }

    #[test]
    fn recover_emits_restored_provenance() {
        let (mut cgm, mut mon, cfs, mut mem, mut ledger) = testbed();
        let a = cgm.create(paper_spec());
        for _ in 0..4 {
            cgm.create(paper_spec());
        }
        mem.register(a, MemController::unlimited());
        mon.sync(&mut cgm);
        for _ in 0..10 {
            ledger.record(&cfs.allocate(P, &[GroupDemand::cpu_bound(a, 20, 1024, 10.0)]));
            mon.tick(&ledger, &mem);
        }
        let snap = mon.snapshot();
        let (_, mut fresh, _, _, _) = testbed();
        fresh.set_tracer(arv_telemetry::Tracer::bounded(64));
        fresh.recover(&snap, &mut cgm);
        let events = fresh.tracer().events();
        assert!(
            events.iter().any(|e| matches!(
                e.kind,
                arv_telemetry::EventKind::Pipeline(PipelineEvent::Restored)
            )),
            "restored pipeline event missing"
        );
        assert!(
            events.iter().any(|e| matches!(
                e.kind,
                arv_telemetry::EventKind::Cpu(d) if d.cause == DecisionCause::Restored
            )),
            "restored cpu decision missing"
        );
    }

    #[test]
    fn observe_tick_advances_and_updates_stamp_namespaces() {
        let (mut cgm, mut mon, cfs, mut mem, mut ledger) = testbed();
        let a = cgm.create(paper_spec());
        mem.register(a, MemController::unlimited());
        mon.sync(&mut cgm);
        assert_eq!(mon.fresh_tick(), 0);
        for _ in 0..5 {
            mon.observe_tick();
        }
        assert_eq!(mon.now_tick(), 5);
        // No firing has refreshed the namespaces: the host's word lags,
        // and every snapshot entry carries it.
        assert_eq!(mon.fresh_tick(), 0);
        assert_eq!(mon.snapshot().get(a.0).unwrap().last_tick, 0);
        ledger.record(&cfs.allocate(P, &[GroupDemand::cpu_bound(a, 20, 1024, 10.0)]));
        mon.tick_window(&ledger, &mem);
        assert_eq!(mon.fresh_tick(), 5);
        assert_eq!(mon.snapshot().get(a.0).unwrap().last_tick, 5);
    }

    /// The per-namespace loop the firing replaced, kept as the reference
    /// it must agree with: every host-wide input re-read, and every usage
    /// looked up, for each namespace in turn.
    fn reference_tick(mon: &mut NsMonitor, ledger: &UsageLedger, mem: &MemSim) {
        if ledger.last_period().is_zero() {
            return;
        }
        for (id, ns) in mon.namespaces.iter_mut() {
            let (cpu_d, mem_d) = ns.update_explained(
                CpuSample {
                    usage: ledger.last_usage(*id),
                    period: ledger.last_period(),
                    slack: ledger.last_slack(),
                },
                MemSample {
                    free: mem.free(),
                    usage: mem.usage(*id),
                    reclaiming: mem.is_reclaiming(),
                },
            );
            if let Some(d) = cpu_d {
                mon.tracer.emit_cpu(mon.now_tick, *id, d);
            }
            if let Some(d) = mem_d {
                mon.tracer.emit_mem(mon.now_tick, *id, d);
            }
        }
        mon.fresh_tick = mon.now_tick;
    }

    /// A 1 GiB host whose twelve containers ride a seeded memory wave in
    /// and out of kswapd's reclaim band. Two of them exercise the usage
    /// streams' gaps: one is unknown to the memory manager, and one
    /// cgroup the manager and ledger still carry has no namespace.
    struct Wave {
        cgm: CgroupManager,
        cfs: CfsSim,
        mem: MemSim,
        ledger: UsageLedger,
        ids: Vec<CgroupId>,
        rng: arv_sim_core::SimRng,
        round: u64,
    }

    impl Wave {
        fn new(seed: u64) -> (Wave, NsMonitor) {
            let cfs = CfsSim::with_cpus(20);
            let mut mem = MemSim::new(MemSimConfig::with_total(Bytes::from_gib(1)));
            let mut mon = NsMonitor::with_defaults(cfs.online(), mem.total(), *mem.watermarks());
            let mut cgm = CgroupManager::new();
            let spec = CgroupSpec::new(
                CpuController::unlimited(20).with_quota_cpus(6.0),
                MemController::unlimited()
                    .with_soft_limit(Bytes::from_mib(48))
                    .with_hard_limit(Bytes::from_mib(160)),
            );
            let ghost = cgm.create(spec);
            mem.register(ghost, spec.mem);
            let ids: Vec<CgroupId> = (0..12).map(|_| cgm.create(spec)).collect();
            for id in &ids[1..] {
                mem.register(*id, spec.mem);
            }
            mon.sync(&mut cgm);
            cgm.remove(ghost);
            mon.sync(&mut cgm);
            assert!(mon.namespace(ghost).is_none());
            let wave = Wave {
                cgm,
                cfs,
                mem,
                ledger: UsageLedger::new(),
                ids,
                rng: arv_sim_core::SimRng::seed_from_u64(seed),
                round: 0,
            };
            (wave, mon)
        }

        /// One scheduling period: a seeded subset runs, memory targets
        /// rise for 20 rounds and fall for 20, kswapd takes its step.
        fn step(&mut self) {
            let ghost = CgroupId(self.ids[0].0 - 1);
            let mut demands = vec![GroupDemand::cpu_bound(ghost, 2, 1024, 6.0)];
            for id in &self.ids {
                if self.rng.range_u64(0, 3) == 0 {
                    demands.push(GroupDemand::cpu_bound(*id, 8, 1024, 6.0));
                }
            }
            self.ledger.record(&self.cfs.allocate(P, &demands));
            let rising = self.round % 40 < 20;
            for _ in 0..4 {
                let id = self.ids[1 + self.rng.range_u64(0, 11) as usize];
                let amount = Bytes::from_mib(self.rng.range_u64(8, 64));
                if rising {
                    let _ = self.mem.charge(id, amount);
                } else {
                    self.mem.uncharge(id, amount);
                }
            }
            self.mem.kswapd_step(P);
            self.round += 1;
        }
    }

    #[test]
    fn firing_matches_the_per_namespace_reference_across_reclaim_flips() {
        let (mut wave, mut fast) = Wave::new(0x5EED);
        let mut reference = fast.clone();
        fast.set_tracer(Tracer::bounded(1 << 16));
        reference.set_tracer(Tracer::bounded(1 << 16));
        let (mut flips, mut was_reclaiming) = (0, false);
        for tick in 0..300 {
            wave.step();
            flips += u32::from(wave.mem.is_reclaiming() != was_reclaiming);
            was_reclaiming = wave.mem.is_reclaiming();
            fast.observe_tick();
            reference.observe_tick();
            fast.tick(&wave.ledger, &wave.mem);
            reference_tick(&mut reference, &wave.ledger, &wave.mem);
            assert_eq!(fast.snapshot(), reference.snapshot(), "tick {tick}");
            assert_eq!(
                fast.tracer().events(),
                reference.tracer().events(),
                "tick {tick}"
            );
        }
        assert!(flips >= 4, "kswapd flipped only {flips} times");
        let events = fast.tracer().events();
        assert!(events.iter().any(|e| matches!(e.kind, EventKind::Cpu(_))));
        assert!(events.iter().any(|e| matches!(e.kind, EventKind::Mem(_))));
        assert!(wave.cgm.contains(wave.ids[0]));
    }

    mod moved_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// After a firing the moved list is exactly the entries of
            /// the snapshot after it whose value triple differs from the
            /// snapshot before it — no view that moved is missed, none
            /// that stood still is named, and each carries its current
            /// value and stamp. A static refresh names every view. Two
            /// firings before one drain may name more, never fewer, and
            /// each still once, as it stands.
            #[test]
            fn moved_list_is_exactly_the_views_that_moved(
                seed in 0u64..1 << 32,
                ticks in 1usize..60,
                twice in 0usize..60
            ) {
                let (mut wave, mut mon) = Wave::new(seed);
                prop_assert_eq!(mon.take_moved(), mon.snapshot().entries);
                for tick in 0..ticks {
                    let before = mon.snapshot();
                    for _ in 0..1 + usize::from(tick == twice) {
                        wave.step();
                        mon.observe_tick();
                        mon.tick(&wave.ledger, &wave.mem);
                    }
                    let after = mon.snapshot();
                    let moved: Vec<ViewState> = before
                        .entries
                        .iter()
                        .zip(&after.entries)
                        .filter(|(b, a)| {
                            (b.e_cpu, b.e_mem, b.e_avail) != (a.e_cpu, a.e_mem, a.e_avail)
                        })
                        .map(|(_, a)| *a)
                        .collect();
                    let drained = mon.take_moved();
                    if tick == twice {
                        prop_assert!(drained.windows(2).all(|w| w[0].id < w[1].id));
                        prop_assert!(drained.iter().all(|v| after.get(v.id) == Some(v)));
                        prop_assert!(moved.iter().all(|v| drained.contains(v)));
                    } else {
                        prop_assert_eq!(drained, moved);
                    }
                }
            }
        }
    }
}

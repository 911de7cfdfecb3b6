//! The simulated host: all substrates advancing in lock-step.

use arv_cfs::{Allocation, CfsSim, GroupDemand, Loadavg, UsageLedger};
use arv_cgroups::{
    Bytes, CgroupId, CgroupManager, CgroupSpec, EventPipe, IdMap, DEFAULT_PIPE_CAPACITY,
};
use arv_fleet::Periphery;
use arv_mem::{ChargeOutcome, MemSim, MemSimConfig};
use arv_persist::{DurableJournal, Edge, RestoreReport, Store};
use arv_resview::effective_cpu::EffectiveCpuConfig;
use arv_resview::effective_mem::EffectiveMemoryConfig;
use arv_resview::namespace::Pid;
use arv_resview::{
    Changes, HostSpec, NsCell, NsMonitor, RecoverOutcome, Sysconf, Verdict, Watchdog, WatchdogStats,
};
use arv_sim_core::{clock::sched_period, FaultPlan, SimClock, SimDuration, SimTime};
use arv_telemetry::{PipelineEvent, Tracer};
use arv_viewd::{ViewClient, ViewServer};
use std::sync::Arc;

use crate::spec::ContainerSpec;

/// Registry shards of the view daemon every host is built with.
const VIEWD_SHARDS: usize = 4;

/// What one scheduling-period step produced.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Length of the period that just elapsed.
    pub period: SimDuration,
    /// The CPU allocation for the period.
    pub alloc: Allocation,
    /// Simulated time after the step.
    pub now: SimTime,
}

#[derive(Debug, Clone)]
struct ContainerMeta {
    name: String,
    init_pid: Pid,
}

/// What a warm restart recovered (see [`SimHost::crash_restart`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreEvent {
    /// Update-timer tick the restart happened at.
    pub tick: u64,
    /// What the journal replay salvaged (torn tails, applied deltas).
    pub report: RestoreReport,
    /// How the monitor reconciled the snapshot against live cgroups,
    /// or `None` when no valid checkpoint survived (cold resync).
    pub outcome: Option<RecoverOutcome>,
}

/// The simulated host machine.
///
/// Owns the cgroup manager, scheduler, memory manager, usage accounting,
/// load average, the `ns_monitor` and the view daemon that publishes its
/// views, and advances them together one scheduling period at a time via
/// [`SimHost::step`]. Every resource query a container makes
/// ([`SimHost::sysfs`], [`SimHost::sysconf`]) is answered by that daemon.
///
/// Cgroup events reach the monitor through a bounded [`EventPipe`]
/// rather than a direct call, and a [`Watchdog`] audits the delivery:
/// dropped or overflowed events (and monitor stalls injected via
/// [`SimHost::inject_monitor_stall`] or a [`FaultPlan`]) are detected
/// and repaired by a full [`NsMonitor::resync`].
#[derive(Debug)]
pub struct SimHost {
    clock: SimClock,
    cgm: CgroupManager,
    cfs: CfsSim,
    mem: MemSim,
    monitor: NsMonitor,
    ledger: UsageLedger,
    loadavg: Loadavg,
    containers: IdMap<ContainerMeta>,
    next_pid: u32,
    update_timer_elapsed: SimDuration,
    viewd: ViewServer,
    // The host's free memory as sampled at the last update-timer firing:
    // what the daemon answers a host caller.
    host_free: Bytes,
    // The handles `viewd` registered, one a namespace the daemon
    // mirrors: what a publish writes through, walked beside the change
    // list. The daemon stays the authority on what is registered.
    cells: IdMap<Arc<NsCell>>,
    pipe: EventPipe,
    watchdog: Watchdog,
    fault_plan: Option<FaultPlan>,
    // Remaining update-timer firings the monitor sleeps through.
    stall_ticks: u64,
    // Remaining update-timer firings whose viewd publish is suppressed.
    delay_publish_ticks: u64,
    // Changes a publish-delay window kept from the daemon.
    viewd_held: Changes,
    // The buffer every drain fills, kept for the next one.
    drained: Changes,
    // Changes drained since the last healthy firing, which the journal
    // and the periphery take at the next one.
    unshipped: Changes,
    /// The daemon's on-disk state file, under the durability ladder.
    journal: Option<DurableJournal>,
    last_restore: Option<RestoreEvent>,
    periphery: Option<Periphery>,
    // Views mirrored into the daemon's cells, published or not: what
    // this module's tests count a publish's work by.
    #[cfg(test)]
    mirrors: u64,
}

impl SimHost {
    /// A host with `cpus` CPUs and `memory` physical memory.
    pub fn new(cpus: u32, memory: Bytes) -> SimHost {
        SimHost::with_view_configs(
            cpus,
            memory,
            EffectiveCpuConfig::default(),
            EffectiveMemoryConfig::default(),
        )
    }

    /// A host with explicit resource-view tunables (ablation studies).
    pub fn with_view_configs(
        cpus: u32,
        memory: Bytes,
        cpu_cfg: EffectiveCpuConfig,
        mem_cfg: EffectiveMemoryConfig,
    ) -> SimHost {
        let cfs = CfsSim::with_cpus(cpus);
        let mem = MemSim::new(MemSimConfig::with_total(memory));
        let monitor = NsMonitor::new(cfs.online(), memory, *mem.watermarks(), cpu_cfg, mem_cfg);
        let host_free = mem.free();
        let viewd = ViewServer::new(host_spec(&cfs, &mem, host_free), VIEWD_SHARDS);
        SimHost {
            clock: SimClock::new(),
            cgm: CgroupManager::new(),
            cfs,
            mem,
            monitor,
            ledger: UsageLedger::new(),
            loadavg: Loadavg::one_min(),
            containers: IdMap::new(),
            next_pid: 1000,
            update_timer_elapsed: SimDuration::ZERO,
            viewd,
            host_free,
            cells: IdMap::new(),
            pipe: EventPipe::new(DEFAULT_PIPE_CAPACITY),
            watchdog: Watchdog::new(),
            fault_plan: None,
            stall_ticks: 0,
            delay_publish_ticks: 0,
            viewd_held: Changes::new(),
            drained: Changes::new(),
            unshipped: Changes::new(),
            journal: None,
            last_restore: None,
            periphery: None,
            #[cfg(test)]
            mirrors: 0,
        }
    }

    /// The paper's testbed: dual 10-core Xeon (20 cores), 128 GB memory.
    pub fn paper_testbed() -> SimHost {
        SimHost::new(20, Bytes::from_gib(128))
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Number of online CPUs on the host.
    pub fn online_cpus(&self) -> u32 {
        self.cfs.online_count()
    }

    /// Physical memory size of the host.
    pub fn total_memory(&self) -> Bytes {
        self.mem.total()
    }

    /// Launch a container: create its cgroup and memory accounting, let
    /// `ns_monitor` build its `sys_namespace`, then model the §3.2 init
    /// handoff — the setup init `exec`s into the user command and the
    /// namespace is re-owned by the new init.
    pub fn launch(&mut self, spec: &ContainerSpec) -> CgroupId {
        let id = self.cgm.create(CgroupSpec::new(spec.cpu, spec.mem));
        self.mem.register(id, spec.mem);
        self.pump_events();

        let new_init = Pid(self.next_pid);
        self.next_pid += 1;
        // Under a fault (stalled monitor, dropped Created event) the
        // namespace may not exist yet; the watchdog's resync recreates
        // it and ownership is restored from the container table then.
        self.monitor.transfer_ownership(id, new_init);

        self.containers.insert(
            id,
            ContainerMeta {
                name: spec.name.clone(),
                init_pid: new_init,
            },
        );
        self.drain_changes(false);
        id
    }

    /// Terminate a container, releasing every resource it held.
    pub fn terminate(&mut self, id: CgroupId) {
        if self.containers.remove(&id).is_some() {
            self.cgm.remove(id);
            self.mem.unregister(id);
            self.ledger.forget(id);
            self.pump_events();
            if !self.monitor_stalled() {
                // Group-commit the removal immediately: a crash before
                // the next timer firing must not resurrect the container.
                self.journal_write(false, |journal| {
                    let journal = journal.journal_mut();
                    journal.append_remove(id.0).and_then(|()| journal.sync())
                });
            }
            self.drain_changes(false);
        }
    }

    /// Adjust a live container's resources (`docker update`).
    pub fn update_limits(&mut self, id: CgroupId, spec: &ContainerSpec) {
        assert!(self.containers.contains_key(&id), "unknown container");
        self.cgm.update(id, CgroupSpec::new(spec.cpu, spec.mem));
        self.mem.set_limits(id, spec.mem);
        self.pump_events();
        self.drain_changes(false);
    }

    /// Drain what the monitor changed into the host's one drain buffer:
    /// the daemon takes it now, unless a publish-delay window holds it
    /// back, and the journal and the periphery take it at the next
    /// healthy firing — by a swap of the two buffers when nothing waits
    /// for them yet, the firing's usual case.
    fn drain_changes(&mut self, hold: bool) {
        let mut drained = std::mem::take(&mut self.drained);
        self.monitor.take_changes(&mut drained);
        self.viewd_publish(&drained, hold);
        if self.unshipped.is_empty() {
            std::mem::swap(&mut self.unshipped, &mut drained);
        } else {
            self.unshipped
                .upsert(&drained, |(id, v)| (*id, *v), |_, _| {});
        }
        self.drained = drained;
    }

    // --- fault-tolerant event pipeline ---

    /// Route pending cgroup events through the bounded pipe into the
    /// monitor, and let the watchdog audit the delivery. When the
    /// monitor is stalled, events pile up in the pipe (possibly
    /// overflowing it) instead of being delivered.
    fn pump_events(&mut self) {
        for ev in self.cgm.drain_events() {
            self.pipe.push(ev);
        }
        if self.monitor_stalled() {
            return;
        }
        let mut events = self.pipe.drain();
        if let Some(plan) = &mut self.fault_plan {
            plan.mangle_queue(&mut events);
        }
        let report = self.monitor.ingest(&events, &self.cgm);
        let overflow = self.pipe.take_overflow_dropped();
        if self.watchdog.after_ingest(&report, overflow) == Verdict::Resync {
            self.resync_now();
        }
    }

    /// Rebuild monitor state from the cgroup hierarchy (recreate missing
    /// namespaces, drop orphans, recompute every bound), then realign.
    fn resync_now(&mut self) {
        self.monitor.resync(&mut self.cgm);
        self.realign();
    }

    /// After the monitor rebuilt its membership: realign the expected
    /// event sequence with the pipe, restore namespace ownership from the
    /// container table, and count the pass as a watchdog recovery.
    fn realign(&mut self) {
        self.monitor.align_seq(self.pipe.next_seq());
        for (id, meta) in &self.containers {
            self.monitor.transfer_ownership(*id, meta.init_pid);
        }
        self.watchdog.note_resynced();
    }

    /// Whether the monitor is currently sleeping through its deadlines
    /// (an injected stall, a [`FaultPlan`] stall window, or a crash
    /// window during which the daemon is down entirely).
    pub fn monitor_stalled(&self) -> bool {
        let tick = self.monitor.now_tick();
        self.stall_ticks > 0
            || self
                .fault_plan
                .as_ref()
                .is_some_and(|p| p.monitor_stalled(tick) || p.crashed(tick))
    }

    /// Stall the monitor for the next `ticks` update-timer firings: no
    /// event delivery, no view updates, no publishes. The staleness
    /// clock keeps running, so served views age honestly.
    pub fn inject_monitor_stall(&mut self, ticks: u64) {
        self.stall_ticks += ticks;
    }

    /// Suppress the viewd publish for the next `ticks` update-timer
    /// firings. The monitor keeps updating its own namespaces; every
    /// answer, in process or over the wire, ages with the daemon's.
    pub fn inject_publish_delay(&mut self, ticks: u64) {
        self.delay_publish_ticks += ticks;
    }

    /// Install a deterministic fault plan driving event mangling and
    /// stall/delay windows. Replaces any previous plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Remove and return the current fault plan.
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault_plan.take()
    }

    /// The watchdog's counters (missed ticks, gaps, overflows, resyncs).
    pub fn watchdog_stats(&self) -> WatchdogStats {
        self.watchdog.stats()
    }

    // --- crash-safe journal + warm restart ---

    /// Turn on view-state journaling: every update-timer firing appends
    /// a delta for each view whose value moved, and every
    /// `checkpoint_every` ticks the journal is compacted into a full
    /// checkpoint. The journal models the daemon's on-disk state file —
    /// it survives a [`crash_restart`](SimHost::crash_restart).
    pub fn enable_journal(&mut self, checkpoint_every: u64) {
        self.enable_journal_with_store(Box::new(arv_persist::MemStore::new()), checkpoint_every);
    }

    /// Like [`enable_journal`](SimHost::enable_journal) but over a
    /// caller-supplied [`Store`] — e.g. a seeded
    /// [`FaultyStore`](arv_persist::FaultyStore) injecting torn
    /// appends, write errors, disk-full windows, and sync stalls. A
    /// store that refuses the setup writes starts the host already on
    /// the degraded rung of the durability ladder.
    pub fn enable_journal_with_store(&mut self, store: Box<dyn Store>, checkpoint_every: u64) {
        let (journal, edge) =
            DurableJournal::open(store, checkpoint_every, &self.monitor.snapshot());
        self.journal = Some(journal);
        self.publish_durability();
        self.durability_edge(edge);
    }

    /// The raw journal bytes, if journaling is enabled.
    pub fn journal_bytes(&self) -> Option<&[u8]> {
        self.journal.as_ref().map(|j| j.journal().as_bytes())
    }

    /// Kill the monitor daemon and warm-restart it from its own
    /// journal (the intact on-disk bytes). See
    /// [`restore_from`](SimHost::restore_from).
    pub fn crash_restart(&mut self) -> RestoreEvent {
        // The fsync model: only the synced prefix survives the crash;
        // the unsynced tail dies with the process.
        let bytes: Vec<u8> = self
            .journal
            .as_mut()
            .map(|j| {
                j.journal_mut().crash();
                j.journal().durable_bytes().to_vec()
            })
            .unwrap_or_default();
        self.restore_from(&bytes)
    }

    /// Kill the monitor daemon and restart it from `bytes` (possibly a
    /// torn or corrupted journal — crash injection truncates the
    /// "file" at arbitrary offsets).
    ///
    /// The replacement monitor resumes the old tick clock, replays the
    /// journal, and reconciles the result against the live cgroup
    /// hierarchy via [`NsMonitor::recover`]; with no salvageable
    /// checkpoint it falls back to a cold [`NsMonitor::resync`].
    /// Events queued while the daemon was down are superseded by the
    /// rescan and discarded. An attached view daemon is brought level
    /// with the reconciled views, so its first-served answers are the
    /// journaled last-good values rather than the cold floor.
    pub fn restore_from(&mut self, bytes: &[u8]) -> RestoreEvent {
        let tick = self.monitor.now_tick();
        self.monitor = self.monitor.restarted();
        let _ = self.pipe.drain();
        let _ = self.pipe.take_overflow_dropped();
        let report = arv_persist::restore(bytes);
        let outcome = report
            .snapshot
            .as_ref()
            .map(|snap| self.monitor.recover(snap, &mut self.cgm));
        if outcome.is_none() {
            self.monitor.resync(&mut self.cgm);
        }
        self.realign();
        self.drain_changes(false);
        self.viewd.note_restore(
            outcome.map_or(0, |o| o.reconciled as u64),
            report.truncated_records,
        );
        // Re-seed the journal with a compacted checkpoint of the
        // reconciled state.
        let snap = self.monitor.snapshot();
        self.journal_write(true, |journal| journal.checkpoint(&snap, tick));
        let ev = RestoreEvent {
            tick,
            report,
            outcome,
        };
        self.last_restore = Some(ev.clone());
        ev
    }

    /// The most recent warm restart, if any.
    pub fn last_restore(&self) -> Option<&RestoreEvent> {
        self.last_restore.as_ref()
    }

    /// Append this firing's news to the journal: one delta per present
    /// view in the unshipped changes (a quiet tick appends nothing; a
    /// removal was committed by `terminate`, or is left to the next
    /// checkpoint) plus a group-commit sync, or a compacted checkpoint
    /// when one is due, the only case that needs the whole snapshot.
    fn journal_tick(&mut self) {
        let Some(journal) = self.journal.as_mut() else {
            return;
        };
        let tick = self.monitor.now_tick();
        journal.journal_mut().set_tick(tick);
        let due = journal.due(tick);
        let result = if due {
            journal.checkpoint(&self.monitor.snapshot(), tick)
        } else {
            let journal = journal.journal_mut();
            (self.unshipped.values().flatten())
                .try_for_each(|e| journal.append_delta(e, tick))
                .and_then(|()| journal.sync())
        };
        let edge = journal.settle(result, due);
        self.durability_edge(edge);
    }

    /// Issue one store interaction against the journal, if enabled, and
    /// settle its result on the durability ladder.
    fn journal_write(
        &mut self,
        checkpoint: bool,
        write: impl FnOnce(&mut DurableJournal) -> Result<(), arv_persist::StoreError>,
    ) {
        let Some(journal) = self.journal.as_mut() else {
            return;
        };
        let result = write(journal);
        let edge = journal.settle(result, checkpoint);
        self.durability_edge(edge);
    }

    /// Report a ladder edge: a pipeline trace event, and the new rung
    /// mirrored into the attached view daemon.
    fn durability_edge(&self, edge: Option<Edge>) {
        let Some(edge) = edge else { return };
        let event = match edge {
            Edge::Lost => PipelineEvent::DurabilityLost,
            Edge::Restored => PipelineEvent::DurabilityRestored,
        };
        self.monitor
            .tracer()
            .emit_pipeline(self.monitor.now_tick(), None, event);
        self.publish_durability();
    }

    /// Mirror the ladder's current rung into the view daemon
    /// (Prometheus) so operators see durability next to staleness.
    fn publish_durability(&self) {
        self.viewd
            .note_durability(self.durability_lost(), self.journal_io_errors());
    }

    /// Whether the host's journal is currently on the degraded
    /// (durability-lost) rung of the ladder.
    pub fn durability_lost(&self) -> bool {
        self.journal.as_ref().is_some_and(DurableJournal::degraded)
    }

    /// Store errors the journal has absorbed since it was enabled.
    pub fn journal_io_errors(&self) -> u64 {
        self.journal.as_ref().map_or(0, DurableJournal::io_errors)
    }

    /// The bytes that would survive a crash: the synced prefix of the
    /// on-disk journal.
    pub fn journal_durable_bytes(&self) -> Option<Vec<u8>> {
        self.journal
            .as_ref()
            .map(|j| j.journal().durable_bytes().to_vec())
    }

    /// Install a [`Tracer`]: the `ns_monitor` (view decisions, container
    /// churn), the watchdog (stalls, event loss) and the view daemon
    /// (degraded-fallback substitutions) emit provenance into it. A
    /// daemon's tracer is fixed when it is built, so the host attaches a
    /// new one built with `tracer`, replacing any attached before; its
    /// counters start from zero.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.monitor.set_tracer(tracer.clone());
        self.watchdog.set_tracer(tracer.clone());
        let spec = self.viewd_host_spec();
        self.attach_viewd(ViewServer::with_telemetry(spec, VIEWD_SHARDS, tracer));
    }

    /// The monitor's update-timer tick count (advances once per firing,
    /// stalled or not).
    pub fn now_tick(&self) -> u64 {
        self.monitor.now_tick()
    }

    // --- view daemon attachment ---

    /// A [`HostSpec`] describing this host's physical configuration, with
    /// the free memory sampled at the last update-timer firing: what the
    /// view daemon answers host callers, and what a [`ViewServer`] is
    /// built with so its host-fallback answers match (an attached one is
    /// handed every later sample).
    pub fn viewd_host_spec(&self) -> HostSpec {
        host_spec(&self.cfs, &self.mem, self.host_free)
    }

    /// Replace the host's view daemon with `server`. Every container the
    /// monitor holds a namespace for, now or later, is registered with
    /// `server`, and its effective view is mirrored into the daemon's
    /// seqlocked cells whenever the monitor reports it changed — so the
    /// daemon's concurrent query threads always answer with the same view
    /// the simulated kernel holds, while the simulation itself stays
    /// single-threaded. This is the host's one walk of every namespace
    /// for the daemon: the whole snapshot goes in as one change list, and
    /// a cell the monitor has no namespace for as a removal. A daemon
    /// whose clock is behind the monitor's is advanced to it first. The
    /// daemon replaced is dropped once nothing else holds it.
    pub fn attach_viewd(&mut self, server: ViewServer) {
        let mut all: Changes = server.ids().into_iter().map(|id| (id, None)).collect();
        let views = self.monitor.snapshot().entries;
        all.upsert(views, |v| (CgroupId(v.id), Some(v)), |_, _| {});
        server.set_host_free(self.host_free);
        // A daemon's clock counts this host's firings. One behind the
        // monitor's would clamp the age the publish below vouches for,
        // and serve a stalled host's views as fresh.
        while server.now_tick() < self.monitor.now_tick() {
            server.advance_tick();
        }
        self.viewd = server;
        self.cells.clear();
        self.viewd_publish(&all, false);
        self.publish_durability();
    }

    /// The host's view daemon: always `Some`, since every host owns one.
    pub fn viewd(&self) -> Option<&ViewServer> {
        Some(&self.viewd)
    }

    /// Attach a fleet periphery agent. On every update-timer firing the
    /// agent marks the views and removals the monitor reported since the
    /// last one and queues DELTA frames (FULL first; a heartbeat when
    /// nothing moved), which the fleet transport drains via
    /// [`SimHost::take_fleet_frames`] — the same mirroring pattern as
    /// [`SimHost::attach_viewd`], pointed up at the cluster controller
    /// instead of sideways at local query threads. It diffs the whole
    /// snapshot instead only when it asks to
    /// ([`Periphery::needs_snapshot`]): for a FULL (attach, a resync
    /// demand, a reconnect) and after a tenant change.
    pub fn attach_periphery(&mut self, periphery: Periphery) {
        self.periphery = Some(periphery);
        self.periphery_observe(false);
    }

    /// The attached fleet periphery, if any.
    pub fn periphery(&self) -> Option<&Periphery> {
        self.periphery.as_ref()
    }

    /// Mutable access to the periphery (tenant assignment, stats).
    pub fn periphery_mut(&mut self) -> Option<&mut Periphery> {
        self.periphery.as_mut()
    }

    /// Drain the periphery's queued fleet frames (empty when detached).
    pub fn take_fleet_frames(&mut self) -> Vec<Vec<u8>> {
        self.periphery
            .as_mut()
            .map(Periphery::take_frames)
            .unwrap_or_default()
    }

    /// Deliver a controller response frame to the periphery. Returns
    /// whether the frame decoded to an ACK addressed at this host.
    pub fn deliver_fleet_ack(&mut self, frame: &[u8]) -> bool {
        let Some(periphery) = self.periphery.as_mut() else {
            return false;
        };
        match arv_fleet::decode_frame(frame) {
            Some(arv_fleet::Frame::Ack(ack)) => {
                periphery.handle_ack(&ack);
                true
            }
            _ => false,
        }
    }

    /// One periphery observation: of the views and removals the monitor
    /// reported since the last healthy firing, or of the whole snapshot
    /// when the periphery asks for it. The durability rung rides along
    /// so the controller's fleet view carries it.
    fn periphery_observe(&mut self, stalled: bool) {
        let (lost, io_errors) = (self.durability_lost(), self.journal_io_errors());
        let Some(periphery) = self.periphery.as_mut() else {
            return;
        };
        periphery.set_durability(lost, io_errors);
        if periphery.needs_snapshot() {
            periphery.observe(&self.monitor.snapshot(), stalled, 0);
        } else {
            let (changes, tick) = (&self.unshipped, self.monitor.now_tick());
            let gone = changes.iter().filter(|(_, v)| v.is_none());
            let removed = gone.map(|(id, _)| &id.0);
            periphery.observe_moved(tick, changes.values().flatten(), removed, stalled, 0);
        }
    }

    /// Tell the daemon what changed — the one way it changes: the
    /// monitor's change list, with any a publish-delay window held over
    /// (of an id listed twice the later entry wins), or, while one
    /// holds, nothing. One walk in id order, with a cursor each into the
    /// host's cell handles and the monitor's namespaces: a removed id is
    /// unregistered and its handle dropped; a present one without a
    /// handle takes the daemon's cell, or registers one from its
    /// namespace, and then has its fallback (lower bound, soft limit) and
    /// view set through the handle. Nothing else is touched. The
    /// freshness word then takes the monitor's age, so nothing is
    /// vouched for as newer than the monitor holds it.
    fn viewd_publish(&mut self, changes: &Changes, hold: bool) {
        let server = &self.viewd;
        if hold || !self.viewd_held.is_empty() {
            self.viewd_held
                .upsert(changes, |(id, v)| (*id, *v), |_, _| {});
        }
        if hold {
            return;
        }
        let held = !self.viewd_held.is_empty();
        let changes = if held { &self.viewd_held } else { changes };
        let (namespaces, cells) = (self.monitor.namespaces(), &mut self.cells);
        let (mut ns_at, mut at, mut gone) = (0, 0, false);
        for (id, view) in changes {
            let slot = namespaces.seek(ns_at, *id);
            ns_at = slot.map_or_else(|i| i, |i| i + 1);
            let (Some(v), Ok(slot)) = (view, slot) else {
                server.unregister(*id);
                gone = true;
                continue;
            };
            let ns = &namespaces.values().as_slice()[slot];
            at = match cells.seek(at, *id) {
                Ok(i) => i,
                Err(i) => {
                    let cell = server.cell(*id).unwrap_or_else(|| {
                        let (bounds, cpu_cfg, e_mem) = ns.cell_parts();
                        server.register(*id, bounds, cpu_cfg, e_mem)
                    });
                    cells.insert(*id, cell);
                    i
                }
            };
            let cell = &cells.values().as_slice()[at];
            cell.set_fallback(ns.cpu_bounds().lower, ns.soft_limit());
            cell.force_publish(v.e_cpu, Bytes(v.e_mem), Bytes(v.e_avail));
            #[cfg(test)]
            {
                self.mirrors += 1;
            }
            at += 1;
        }
        if gone {
            // The unregistered are the handles whose namespace is gone.
            let mut ns_at = 0;
            cells.retain(|id, _| {
                let slot = namespaces.seek(ns_at, *id);
                ns_at = slot.map_or_else(|i| i, |i| i + 1);
                slot.is_ok()
            });
        }
        self.viewd_held.clear();
        server.mark_fresh(self.monitor.now_tick() - self.monitor.fresh_tick());
    }

    /// The container's name, if it exists.
    pub fn container_name(&self, id: CgroupId) -> Option<&str> {
        self.containers.get(&id).map(|m| m.name.as_str())
    }

    /// Number of live containers.
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// Pid of the container's (post-exec) init process — the namespace
    /// owner.
    pub fn init_pid(&self, id: CgroupId) -> Option<Pid> {
        self.containers.get(&id).map(|m| m.init_pid)
    }

    /// Shortest allowed simulation step (bounds event-driven stepping).
    pub const MIN_STEP: SimDuration = SimDuration::from_micros(500);

    /// Advance one scheduling period. `demands` carries each running
    /// container's CPU request; the period length follows the CFS rule
    /// from the total runnable count.
    pub fn step(&mut self, demands: &[GroupDemand]) -> StepOutcome {
        self.step_capped(demands, SimDuration(u64::MAX))
    }

    /// Advance one step of at most `cap` (event-driven stepping: workload
    /// drivers cap the step at their next event — eden full, GC end,
    /// region end). The `sys_namespace` update timer still fires once per
    /// CFS scheduling period, over the accumulated usage window.
    pub fn step_capped(&mut self, demands: &[GroupDemand], cap: SimDuration) -> StepOutcome {
        let total_runnable: u32 = demands.iter().map(|d| d.runnable).sum();
        let sched = sched_period(total_runnable.max(1));
        let period = sched.min(cap).max(Self::MIN_STEP);

        let alloc = self.cfs.allocate(period, demands);
        self.ledger.record(&alloc);
        self.mem.kswapd_step(period);
        self.pump_events();
        self.update_timer_elapsed += period;
        if self.update_timer_elapsed >= sched {
            self.update_timer_elapsed = SimDuration::ZERO;
            self.on_update_timer();
        }
        self.loadavg.observe(total_runnable, period);
        let now = self.clock.advance(period);

        StepOutcome { period, alloc, now }
    }

    /// One firing of the `sys_namespace` update timer.
    fn on_update_timer(&mut self) {
        // The tick models the timer itself, so it advances whether or
        // not the monitor gets to its work — that difference is exactly
        // what staleness measures.
        self.monitor.observe_tick();
        // Host values never degrade, so the daemon takes the host's free
        // memory from one sample per firing, stalled or not.
        self.host_free = self.mem.free();
        self.viewd.advance_tick();
        self.viewd.set_host_free(self.host_free);
        // The first tick past a crash window is the warm restart: the
        // replacement daemon recovers from its journal before this
        // firing's regular work runs.
        if self
            .fault_plan
            .as_ref()
            .and_then(|p| p.restart_tick())
            .is_some_and(|t| t == self.monitor.now_tick())
        {
            self.crash_restart();
            // The rescan inside the restore supersedes any resync the
            // watchdog latched while the daemon was down.
            let _ = self.watchdog.take_pending_resync();
        }
        if self.monitor_stalled() {
            self.stall_ticks = self.stall_ticks.saturating_sub(1);
            self.watchdog.note_missed_deadline();
            // The usage window keeps accumulating unread; views and
            // publishes stay frozen at their last values — but the
            // periphery still reports the stall upward, so the fleet
            // controller sees the host degrade in real time, with what
            // lifecycle calls changed before it (kept for the journal).
            self.periphery_observe(true);
            return;
        }
        // A resync latched while the monitor was stalled runs on the
        // first healthy firing.
        if self.watchdog.take_pending_resync() {
            self.resync_now();
        }
        self.monitor.tick_window(&self.ledger, &self.mem);
        self.ledger.reset_window();
        self.watchdog.note_deadline_met();
        let hold = self.delay_publish_ticks > 0;
        self.delay_publish_ticks -= u64::from(hold);
        self.drain_changes(hold);
        self.journal_tick();
        self.periphery_observe(false);
        self.unshipped.clear();
    }

    /// Build a CPU-bound demand for a container from its cgroup settings.
    pub fn demand(&self, id: CgroupId, runnable: u32) -> GroupDemand {
        let spec = self.cgm.get(id).expect("unknown container");
        GroupDemand::cpu_bound(
            id,
            runnable,
            spec.cpu.shares,
            spec.cpu.cpu_cap(self.cfs.online()),
        )
    }

    /// The virtual sysfs: a query handle on the host's view daemon, so a
    /// process inside a container is answered what a wire client of the
    /// daemon is — the published view, or its conservative fallback once
    /// the daemon's views age past the staleness budget. The monitor's
    /// own, never-degraded values are [`SimHost::monitor`]'s namespaces.
    pub fn sysfs(&self) -> ViewClient {
        self.viewd.client()
    }

    /// `sysconf` as seen from inside `caller` (or the host for `None`).
    pub fn sysconf(&self, caller: Option<CgroupId>, q: Sysconf) -> u64 {
        self.sysfs().sysconf(caller, q)
    }

    /// 1-minute load average — the `getloadavg()[0]` series libgomp's
    /// dynamic-thread heuristic reads.
    pub fn loadavg(&self) -> f64 {
        self.loadavg.value()
    }

    /// Prime the load average to a steady-state value (experiments that
    /// start mid-workload would otherwise wait out the EWMA warm-up).
    pub fn prime_loadavg(&mut self, value: f64) {
        self.loadavg = Loadavg::primed(arv_cfs::loadavg::ONE_MINUTE, value);
    }

    // --- memory pass-throughs for workload models ---

    /// Charge container memory (allocation / heap commit).
    pub fn charge(&mut self, id: CgroupId, amount: Bytes) -> ChargeOutcome {
        self.mem.charge(id, amount)
    }

    /// Release container memory (heap shrink / free).
    pub fn uncharge(&mut self, id: CgroupId, amount: Bytes) {
        self.mem.uncharge(id, amount)
    }

    /// The container's resident memory (`memory.usage_in_bytes`).
    pub fn memory_usage(&self, id: CgroupId) -> Bytes {
        self.mem.usage(id)
    }

    /// System-wide free physical memory.
    pub fn free_memory(&self) -> Bytes {
        self.mem.free()
    }

    /// The memory manager.
    pub fn mem(&self) -> &MemSim {
        &self.mem
    }

    /// The CPU scheduler.
    pub fn cfs(&self) -> &CfsSim {
        &self.cfs
    }

    /// The CPU usage ledger.
    pub fn ledger(&self) -> &UsageLedger {
        &self.ledger
    }

    /// The `ns_monitor`.
    pub fn monitor(&self) -> &NsMonitor {
        &self.monitor
    }
}

/// The physical configuration of a host of `cfs` and `mem`, `free` of
/// which was free at the last sample.
fn host_spec(cfs: &CfsSim, mem: &MemSim, free: Bytes) -> HostSpec {
    HostSpec {
        online_cpus: cfs.online_count(),
        total_memory: mem.total(),
        free_memory: free,
        cfs_period_us: arv_cgroups::cpu::DEFAULT_CFS_PERIOD.as_micros(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arv_resview::render::CONTAINER_PATHS;
    use arv_resview::{Sysconf, ViewHealth, STALENESS_BUDGET};
    use std::collections::BTreeMap;

    /// The monitor's own effective CPU for `id`, never degraded.
    fn e_cpu(host: &SimHost, id: CgroupId) -> u32 {
        host.monitor()
            .namespace(id)
            .expect("a namespace")
            .effective_cpu()
    }

    /// The monitor's own effective memory for `id`, never degraded.
    fn e_mem(host: &SimHost, id: CgroupId) -> Bytes {
        host.monitor()
            .namespace(id)
            .expect("a namespace")
            .effective_memory()
    }

    fn five_paper_containers(host: &mut SimHost) -> Vec<CgroupId> {
        (0..5)
            .map(|i| {
                host.launch(
                    &ContainerSpec::new(format!("dacapo-{i}"), 20)
                        .cpus(10.0)
                        .cpu_shares(1024),
                )
            })
            .collect()
    }

    #[test]
    fn launch_creates_namespace_and_transfers_ownership() {
        let mut host = SimHost::paper_testbed();
        let id = host.launch(&ContainerSpec::new("c0", 20));
        let ns = host.monitor().namespace(id).unwrap();
        assert_eq!(ns.owner(), host.init_pid(id).unwrap());
        assert_eq!(host.container_name(id), Some("c0"));
    }

    #[test]
    fn effective_cpu_converges_to_fair_share_under_contention() {
        let mut host = SimHost::paper_testbed();
        let ids = five_paper_containers(&mut host);
        // All five fully loaded: no slack → everyone sits at the lower
        // bound of 4, which is exactly the fair share.
        for _ in 0..50 {
            let demands: Vec<_> = ids.iter().map(|id| host.demand(*id, 20)).collect();
            host.step(&demands);
        }
        for id in &ids {
            assert_eq!(e_cpu(&host, *id), 4);
        }
    }

    #[test]
    fn effective_cpu_expands_when_neighbours_go_idle() {
        let mut host = SimHost::paper_testbed();
        let ids = five_paper_containers(&mut host);
        // Only container 0 runs; the other four are idle.
        for _ in 0..50 {
            let demands = vec![host.demand(ids[0], 20)];
            host.step(&demands);
        }
        // Work conservation lets it climb to its 10-core quota.
        assert_eq!(e_cpu(&host, ids[0]), 10);
    }

    #[test]
    fn effective_cpu_contracts_when_neighbours_return() {
        let mut host = SimHost::paper_testbed();
        let ids = five_paper_containers(&mut host);
        for _ in 0..50 {
            let demands = vec![host.demand(ids[0], 20)];
            host.step(&demands);
        }
        assert_eq!(e_cpu(&host, ids[0]), 10);
        for _ in 0..50 {
            let demands: Vec<_> = ids.iter().map(|id| host.demand(*id, 20)).collect();
            host.step(&demands);
        }
        assert_eq!(e_cpu(&host, ids[0]), 4);
    }

    #[test]
    fn attached_periphery_streams_hello_then_deltas() {
        let mut host = SimHost::paper_testbed();
        let ids = five_paper_containers(&mut host);
        host.attach_periphery(Periphery::new(7));
        for _ in 0..10 {
            let demands: Vec<_> = ids.iter().map(|id| host.demand(*id, 20)).collect();
            host.step(&demands);
        }
        let frames = host.take_fleet_frames();
        assert!(frames.len() >= 2, "hello plus at least one delta");
        assert!(matches!(
            arv_fleet::decode_frame(&frames[0]),
            Some(arv_fleet::Frame::Hello(h)) if h.host == 7
        ));
        let full = frames.iter().skip(1).any(
            |f| matches!(arv_fleet::decode_frame(f), Some(arv_fleet::Frame::Delta(d)) if d.head.full),
        );
        assert!(full, "first delta after attach is a FULL snapshot");
        // A controller resync request schedules another FULL once state moves.
        let resync = arv_fleet::encode_ack(&arv_fleet::Ack {
            host: 7,
            expected_seq: 0,
            ctl_epoch: 0,
            resync: true,
            not_leader: false,
            policy: None,
        });
        assert!(host.deliver_fleet_ack(&resync));
        assert_eq!(host.periphery().unwrap().stats().resyncs, 1);
    }

    #[test]
    fn sysconf_inside_vs_outside_container() {
        let mut host = SimHost::paper_testbed();
        let ids = five_paper_containers(&mut host);
        for _ in 0..10 {
            let demands: Vec<_> = ids.iter().map(|id| host.demand(*id, 20)).collect();
            host.step(&demands);
        }
        assert_eq!(host.sysconf(Some(ids[0]), Sysconf::NprocessorsOnln), 4);
        assert_eq!(host.sysconf(None, Sysconf::NprocessorsOnln), 20);
    }

    #[test]
    fn terminate_releases_resources_and_bounds() {
        let mut host = SimHost::paper_testbed();
        let ids = five_paper_containers(&mut host);
        host.charge(ids[1], Bytes::from_gib(2));
        for id in &ids[1..] {
            host.terminate(*id);
        }
        assert_eq!(host.container_count(), 1);
        assert_eq!(host.free_memory(), host.total_memory());
        // Alone now: lower bound returns to the 10-core quota.
        let demands = vec![host.demand(ids[0], 20)];
        host.step(&demands);
        assert_eq!(
            host.monitor().namespace(ids[0]).unwrap().cpu_bounds().lower,
            10
        );
    }

    #[test]
    fn update_limits_propagates_to_namespace() {
        let mut host = SimHost::paper_testbed();
        let id = host.launch(&ContainerSpec::new("c", 20).cpus(10.0));
        host.update_limits(
            id,
            &ContainerSpec::new("c", 20)
                .cpus(2.0)
                .memory(Bytes::from_gib(1)),
        );
        let ns = host.monitor().namespace(id).unwrap();
        assert_eq!(ns.cpu_bounds().upper, 2);
        assert_eq!(e_mem(&host, id), Bytes::from_gib(1));
    }

    #[test]
    fn step_advances_clock_by_cfs_period_rule() {
        let mut host = SimHost::paper_testbed();
        let id = host.launch(&ContainerSpec::new("c", 20));
        // 4 runnable ≤ 8 → 24 ms.
        let out = host.step(&[host.demand(id, 4)]);
        assert_eq!(out.period, SimDuration::from_millis(24));
        // 20 runnable → 3 ms × 20 = 60 ms.
        let out = host.step(&[host.demand(id, 20)]);
        assert_eq!(out.period, SimDuration::from_millis(60));
        assert_eq!(host.now().as_micros(), 84_000);
    }

    #[test]
    fn loadavg_rises_under_sustained_load() {
        let mut host = SimHost::paper_testbed();
        let id = host.launch(&ContainerSpec::new("c", 20));
        assert_eq!(host.loadavg(), 0.0);
        for _ in 0..1000 {
            let d = host.demand(id, 20);
            host.step(&[d]);
        }
        assert!(host.loadavg() > 1.0);
        host.prime_loadavg(20.0);
        assert_eq!(host.loadavg(), 20.0);
    }

    #[test]
    fn step_capped_respects_cap_and_floor() {
        let mut host = SimHost::paper_testbed();
        let id = host.launch(&ContainerSpec::new("c", 20));
        // Cap below the scheduling period shortens the step …
        let out = host.step_capped(&[host.demand(id, 4)], SimDuration::from_millis(3));
        assert_eq!(out.period, SimDuration::from_millis(3));
        // … but never below MIN_STEP.
        let out = host.step_capped(&[host.demand(id, 4)], SimDuration::from_micros(1));
        assert_eq!(out.period, SimHost::MIN_STEP);
        // A huge cap falls back to the CFS period rule.
        let out = host.step_capped(&[host.demand(id, 4)], SimDuration::from_secs(10));
        assert_eq!(out.period, SimDuration::from_millis(24));
    }

    #[test]
    fn update_timer_fires_once_per_scheduling_period_under_short_steps() {
        // Many 1 ms steps: the view may only move after a full 24 ms of
        // accumulated window, exactly as with native-period stepping.
        let mut host = SimHost::paper_testbed();
        for _ in 0..4 {
            host.launch(&ContainerSpec::new("x", 20).cpus(10.0));
        }
        // Launched into a 5-way share, the view is born at the 4-CPU
        // lower bound and has a 10-CPU quota to climb to.
        let a = host.launch(&ContainerSpec::new("a", 20).cpus(10.0));
        assert_eq!(e_cpu(&host, a), 4);
        let mut changes = 0;
        let mut last = e_cpu(&host, a);
        for _ in 0..48 {
            let d = host.demand(a, 20);
            host.step_capped(&[d], SimDuration::from_millis(1));
            if e_cpu(&host, a) != last {
                changes += 1;
                last = e_cpu(&host, a);
            }
        }
        // 48 ms of 1 ms steps = at most 2 update-timer firings.
        assert!(changes <= 2, "view moved {changes} times in 48 ms");
    }

    #[test]
    fn attached_viewd_mirrors_launch_step_and_terminate() {
        let mut host = SimHost::paper_testbed();
        let server = ViewServer::new(host.viewd_host_spec(), 8);
        host.attach_viewd(server.clone());
        let ids = five_paper_containers(&mut host);
        assert_eq!(server.len(), 5);
        let client = server.client();
        // Mirrored at launch: the daemon answers exactly what the
        // simulated kernel's namespace holds for every container (the
        // last-launched are born at the 4-CPU lower bound; earlier ones
        // keep their elevated views until the update timer contracts
        // them).
        for id in &ids {
            assert_eq!(
                client.sysconf(Some(*id), Sysconf::NprocessorsOnln),
                u64::from(e_cpu(&host, *id))
            );
        }
        assert_eq!(client.sysconf(Some(ids[4]), Sysconf::NprocessorsOnln), 4);
        // Only container 0 runs; work conservation grows its view, and
        // every update-timer firing pushes the new view to the daemon.
        for _ in 0..50 {
            let demands = vec![host.demand(ids[0], 20)];
            host.step(&demands);
        }
        assert_eq!(e_cpu(&host, ids[0]), 10);
        assert_eq!(client.sysconf(Some(ids[0]), Sysconf::NprocessorsOnln), 10);
        let online = client
            .read(Some(ids[0]), "/sys/devices/system/cpu/online")
            .unwrap();
        assert_eq!(online.image.as_str(), "0-9");
        host.terminate(ids[0]);
        assert_eq!(server.len(), 4);
        // Unknown again: the daemon falls back to the host view.
        assert_eq!(client.sysconf(Some(ids[0]), Sysconf::NprocessorsOnln), 20);
    }

    #[test]
    fn attach_viewd_registers_existing_containers() {
        let mut host = SimHost::paper_testbed();
        let ids = five_paper_containers(&mut host);
        let server = ViewServer::new(host.viewd_host_spec(), 4);
        host.attach_viewd(server.clone());
        assert_eq!(server.len(), 5);
        let client = server.client();
        assert_eq!(
            client.sysconf(Some(ids[0]), Sysconf::NprocessorsOnln),
            u64::from(e_cpu(&host, ids[0]))
        );
    }

    #[test]
    fn update_limits_mirrors_into_viewd() {
        let mut host = SimHost::paper_testbed();
        let server = ViewServer::new(host.viewd_host_spec(), 4);
        host.attach_viewd(server.clone());
        let id = host.launch(&ContainerSpec::new("c", 20).cpus(10.0));
        let client = server.client();
        let gen_at_launch = client.generation(id).unwrap();
        host.update_limits(
            id,
            &ContainerSpec::new("c", 20)
                .cpus(2.0)
                .memory(Bytes::from_gib(1)),
        );
        assert_eq!(
            client.sysconf(Some(id), Sysconf::PhysPages) * arv_resview::PAGE_SIZE,
            Bytes::from_gib(1).as_u64()
        );
        // The launch mirror moved nothing (a generation names a value);
        // the update's clamp did.
        assert!(
            client.generation(id).unwrap() > gen_at_launch,
            "the update was published"
        );
    }

    #[test]
    fn terminate_unknown_container_is_noop() {
        let mut host = SimHost::paper_testbed();
        host.terminate(CgroupId(77));
        assert_eq!(host.container_count(), 0);
    }

    #[test]
    fn stalled_monitor_misses_launches_until_resync() {
        let mut host = SimHost::paper_testbed();
        let a = host.launch(&ContainerSpec::new("a", 20).cpus(10.0));
        host.inject_monitor_stall(4);
        assert!(host.monitor_stalled());
        let d = host.demand(a, 4);
        host.step(&[d]);
        // Launched mid-stall: the Created event is stuck in the pipe.
        let b = host.launch(&ContainerSpec::new("b", 20).cpus(10.0));
        assert!(host.monitor().namespace(b).is_none());
        // Ride out the stall; the first healthy firing resyncs.
        for _ in 0..5 {
            let d = host.demand(a, 4);
            host.step(&[d]);
        }
        assert!(!host.monitor_stalled());
        let ns = host.monitor().namespace(b).expect("resync recreated it");
        assert_eq!(ns.owner(), host.init_pid(b).unwrap());
        let w = host.watchdog_stats();
        assert!(w.missed_ticks >= 3, "stall shows up as missed deadlines");
        assert!(w.resyncs >= 1);
    }

    #[test]
    fn dropped_events_are_detected_as_a_gap_and_resynced() {
        use arv_sim_core::FaultConfig;
        let mut host = SimHost::paper_testbed();
        let _a = host.launch(&ContainerSpec::new("a", 20).cpus(10.0));
        host.set_fault_plan(FaultPlan::new(
            7,
            FaultConfig {
                drop_prob: 1.0,
                ..FaultConfig::quiet()
            },
        ));
        let b = host.launch(&ContainerSpec::new("b", 20).cpus(10.0));
        assert!(
            host.monitor().namespace(b).is_none(),
            "Created event was dropped in flight"
        );
        assert!(host.fault_stats().unwrap().dropped >= 1);
        host.take_fault_plan();
        // The next delivered event exposes the sequence gap; the
        // watchdog resyncs and recovers container b wholesale.
        let c = host.launch(&ContainerSpec::new("c", 20).cpus(10.0));
        assert!(host.monitor().namespace(b).is_some());
        assert!(host.monitor().namespace(c).is_some());
        assert_eq!(
            host.monitor().namespace(b).unwrap().owner(),
            host.init_pid(b).unwrap()
        );
        assert!(host.watchdog_stats().gaps_detected >= 1);
        assert!(host.watchdog_stats().resyncs >= 1);
    }

    #[test]
    fn publish_delay_degrades_viewd_to_lower_bound_and_recovers() {
        let mut host = SimHost::paper_testbed();
        let server = ViewServer::new(host.viewd_host_spec(), 4);
        host.attach_viewd(server.clone());
        let ids = five_paper_containers(&mut host);
        for _ in 0..50 {
            let d = vec![host.demand(ids[0], 20)];
            host.step(&d);
        }
        assert_eq!(e_cpu(&host, ids[0]), 10);
        let client = server.client();
        assert_eq!(client.sysconf(Some(ids[0]), Sysconf::NprocessorsOnln), 10);
        // Suppress publishes past the staleness budget: the daemon keeps
        // answering, but from the conservative fallback (the 4-CPU lower
        // bound), never the frozen 10-CPU view.
        let budget = STALENESS_BUDGET;
        host.inject_publish_delay(budget + 2);
        for _ in 0..(budget + 2) {
            let d = vec![host.demand(ids[0], 20)];
            host.step(&d);
        }
        assert!(client.health(Some(ids[0])).is_degraded());
        assert_eq!(client.sysconf(Some(ids[0]), Sysconf::NprocessorsOnln), 4);
        assert!(server.metrics().degraded_serves >= 1);
        // Publishes resume: one firing later the live view is back.
        let d = vec![host.demand(ids[0], 20)];
        host.step(&d);
        assert!(client.health(Some(ids[0])).is_fresh());
        assert_eq!(client.sysconf(Some(ids[0]), Sysconf::NprocessorsOnln), 10);
    }

    /// A publish outage reaches what the host's own containers read: the
    /// in-process `sysconf` and the sysfs health age with the daemon's,
    /// answer the lower bound past the budget, and are live again one
    /// firing after publishes resume.
    #[test]
    fn publish_delay_degrades_the_hosts_own_sysfs_and_recovers() {
        let mut host = SimHost::paper_testbed();
        let ids = five_paper_containers(&mut host);
        grow_first(&mut host, &ids);
        let c0 = Some(ids[0]);
        assert_eq!(host.sysconf(c0, Sysconf::NprocessorsOnln), 10);
        let budget = STALENESS_BUDGET;
        host.inject_publish_delay(budget + 2);
        for _ in 0..(budget + 2) {
            let d = vec![host.demand(ids[0], 20)];
            host.step(&d);
        }
        assert_eq!(e_cpu(&host, ids[0]), 10, "the monitor kept its view");
        assert!(host.sysfs().health(c0).is_degraded());
        let lower = host
            .monitor()
            .namespace(ids[0])
            .expect("a namespace")
            .cpu_bounds()
            .lower;
        assert_eq!(host.sysconf(c0, Sysconf::NprocessorsOnln), u64::from(lower));
        assert!(lower < 10);
        let d = vec![host.demand(ids[0], 20)];
        host.step(&d);
        assert!(host.sysfs().health(c0).is_fresh());
        assert_eq!(host.sysconf(c0, Sysconf::NprocessorsOnln), 10);
    }

    #[test]
    fn stalled_monitor_ages_viewd_views_into_degraded_serving() {
        let mut host = SimHost::paper_testbed();
        let server = ViewServer::new(host.viewd_host_spec(), 4);
        host.attach_viewd(server.clone());
        let ids = five_paper_containers(&mut host);
        for _ in 0..50 {
            let d = vec![host.demand(ids[0], 20)];
            host.step(&d);
        }
        let client = server.client();
        assert_eq!(client.sysconf(Some(ids[0]), Sysconf::NprocessorsOnln), 10);
        let budget = STALENESS_BUDGET;
        host.inject_monitor_stall(budget + 2);
        for _ in 0..(budget + 2) {
            let d = vec![host.demand(ids[0], 20)];
            host.step(&d);
        }
        // The stall froze publishes too; the viewd clock kept ticking.
        assert!(client.health(Some(ids[0])).is_degraded());
        assert_eq!(client.sysconf(Some(ids[0]), Sysconf::NprocessorsOnln), 4);
        // Recovery: the post-stall firing updates and republishes.
        let d = vec![host.demand(ids[0], 20)];
        host.step(&d);
        assert!(client.health(Some(ids[0])).is_fresh());
        assert!(host.watchdog_stats().missed_ticks >= budget);
    }

    /// A daemon attached while the monitor is stalled past the budget —
    /// as `set_tracer` attaches one — serves the monitor's age, not a
    /// fresh one, and the first firing after the stall refreshes it.
    #[test]
    fn a_daemon_attached_mid_stall_serves_the_monitors_age() {
        let mut host = SimHost::paper_testbed();
        let ids = five_paper_containers(&mut host);
        grow_first(&mut host, &ids);
        let budget = STALENESS_BUDGET;
        host.inject_monitor_stall(budget + 2);
        for _ in 0..(budget + 1) {
            let d = vec![host.demand(ids[0], 20)];
            host.step(&d);
        }
        let c0 = Some(ids[0]);
        let aged = ViewHealth::Degraded { age: budget + 1 };
        assert_eq!(host.sysfs().health(c0), aged);
        host.set_tracer(arv_telemetry::Tracer::bounded(64));
        assert_eq!(host.sysfs().health(c0), aged);
        assert!(host.sysconf(c0, Sysconf::NprocessorsOnln) < 10);
        for _ in 0..2 {
            let d = vec![host.demand(ids[0], 20)];
            host.step(&d);
        }
        assert!(host.sysfs().health(c0).is_fresh());
        assert_eq!(host.sysconf(c0, Sysconf::NprocessorsOnln), 10);
    }

    /// Grow container 0's view to its 10-CPU quota under a 5-way share.
    fn grow_first(host: &mut SimHost, ids: &[CgroupId]) {
        for _ in 0..50 {
            let d = vec![host.demand(ids[0], 20)];
            host.step(&d);
        }
        assert_eq!(e_cpu(host, ids[0]), 10);
    }

    #[test]
    fn crash_restart_resumes_journaled_views_not_the_floor() {
        let mut host = SimHost::paper_testbed();
        host.enable_journal(8);
        let ids = five_paper_containers(&mut host);
        grow_first(&mut host, &ids);
        let grown_mem = e_mem(&host, ids[0]);
        let ev = host.crash_restart();
        // The replacement monitor resumed the journaled views, not the
        // cold 4-CPU lower bound.
        assert_eq!(e_cpu(&host, ids[0]), 10);
        assert_eq!(e_mem(&host, ids[0]), grown_mem);
        assert!(ev.report.snapshot.is_some(), "journal held a checkpoint");
        assert_eq!(ev.report.truncated_records, 0);
        let outcome = ev.outcome.expect("recover ran, not cold resync");
        assert_eq!(outcome.restored + outcome.reconciled, 5);
        assert_eq!(outcome.dropped, 0);
        assert_eq!(outcome.admitted, 0);
        assert_eq!(host.last_restore(), Some(&ev));
        // The clock kept its place: staleness stays honest.
        assert!(host.now_tick() > 0);
        // And adjustment resumes from the restored values.
        let d = vec![host.demand(ids[0], 20)];
        host.step(&d);
        assert_eq!(e_cpu(&host, ids[0]), 10);
    }

    #[test]
    fn fallbacks_follow_bounds_moved_behind_a_stall() {
        let mut host = SimHost::paper_testbed();
        let server = ViewServer::new(host.viewd_host_spec(), 4);
        host.attach_viewd(server.clone());
        let a = host.launch(&ContainerSpec::new("a", 20).cpus(10.0));
        let step = |host: &mut SimHost| {
            let d = vec![host.demand(a, 4)];
            host.step(&d);
        };
        step(&mut host);
        // Four neighbours arrive while the monitor sleeps: `a`'s lower
        // bound drops from 10 to 4 only once the events are delivered,
        // on a firing that launches and updates nothing.
        host.inject_monitor_stall(2);
        for i in 0..4 {
            host.launch(&ContainerSpec::new(format!("n{i}"), 20).cpus(10.0));
        }
        for _ in 0..4 {
            step(&mut host);
        }
        assert_eq!(host.monitor().namespace(a).unwrap().cpu_bounds().lower, 4);
        let budget = STALENESS_BUDGET;
        host.inject_publish_delay(budget + 2);
        for _ in 0..(budget + 2) {
            step(&mut host);
        }
        let client = server.client();
        assert!(client.health(Some(a)).is_degraded());
        assert_eq!(client.sysconf(Some(a), Sysconf::NprocessorsOnln), 4);
    }

    #[test]
    fn quiet_ticks_carry_freshness_and_nothing_else() {
        use arv_fleet::{FleetController, FleetPolicy};
        let mut host = SimHost::paper_testbed();
        let server = ViewServer::new(host.viewd_host_spec(), 4);
        host.attach_viewd(server.clone());
        host.enable_journal(1 << 20); // no checkpoint inside the test
        let ids = five_paper_containers(&mut host);
        host.charge(ids[0], Bytes::from_gib(2));
        host.attach_periphery(Periphery::new(3));
        let ctl = FleetController::new(2, FleetPolicy::default());
        let round = |host: &mut SimHost| {
            let d = vec![host.demand(ids[0], 20)];
            host.step(&d);
            let frames = host.take_fleet_frames();
            for frame in &frames {
                let ack = ctl.handle_frame(frame).expect("a request frame");
                assert!(host.deliver_fleet_ack(&ack));
            }
            ctl.advance_tick();
            frames
        };
        // Converge: container 0 grows to its quota, the rest sit idle.
        for _ in 0..60 {
            round(&mut host);
        }
        let client = server.client();
        let path = "/proc/meminfo";
        for id in &ids {
            assert!(client.read(Some(*id), path).is_some(), "prime the cache");
        }
        let views = host.monitor().snapshot();
        let generations: Vec<_> = ids.iter().map(|id| client.generation(*id)).collect();
        let journal_len = host.journal_bytes().expect("journaling").len();
        let before = server.metrics();
        let shipped = host.periphery().expect("attached").stats().entries;
        let mirrored = host.mirrors;

        for _ in 0..20 {
            let frames = round(&mut host);
            assert_eq!(frames.len(), 1, "the heartbeat, and only it");
            for id in &ids {
                assert!(client.health(Some(*id)).is_fresh());
                assert!(client.read_cached(Some(*id), path).is_some(), "render kept");
            }
        }

        let now = host.monitor().snapshot();
        assert_eq!(now.entries.len(), views.entries.len());
        for (a, b) in now.entries.iter().zip(&views.entries) {
            assert_eq!((a.e_cpu, a.e_mem, a.e_avail), (b.e_cpu, b.e_mem, b.e_avail));
            assert_eq!(a.last_tick, b.last_tick + 20, "the stamp still advances");
        }
        let after: Vec<_> = ids.iter().map(|id| client.generation(*id)).collect();
        assert_eq!(after, generations, "no value moved, no generation did");
        assert_eq!(host.mirrors, mirrored, "a quiet firing mirrors nothing");
        let m = server.metrics();
        assert_eq!(m.cache_misses, before.cache_misses);
        assert_eq!(m.cache_hits - before.cache_hits, 20 * ids.len() as u64);
        assert_eq!(m.degraded_serves, 0);
        assert_eq!(
            host.journal_bytes().expect("journaling").len(),
            journal_len,
            "a quiet tick appends no delta"
        );
        assert_eq!(host.periphery().expect("attached").stats().entries, shipped);
        let rollup = ctl.cluster_capacity();
        assert_eq!((rollup.hosts, rollup.partitioned), (1, 0));
        assert_eq!(ctl.metrics().snapshot().hosts_partitioned, 0);

        // The journal said nothing for 20 ticks and still holds it all.
        let ev = host.crash_restart();
        assert_eq!(ev.report.truncated_records, 0);
        let restored = host.monitor().snapshot();
        for (a, b) in restored.entries.iter().zip(&now.entries) {
            assert_eq!((a.id, a.e_cpu, a.e_mem), (b.id, b.e_cpu, b.e_mem));
        }
        // Availability is usage-derived: the next firing re-observes it.
        round(&mut host);
        let resumed = host.monitor().snapshot();
        for (a, b) in resumed.entries.iter().zip(&now.entries) {
            assert_eq!((a.e_cpu, a.e_mem, a.e_avail), (b.e_cpu, b.e_mem, b.e_avail));
        }

        // A busy firing mirrors exactly the views that moved.
        host.charge(ids[1], Bytes::from_gib(1));
        let (views, mirrored) = (host.monitor().snapshot(), host.mirrors);
        round(&mut host);
        let moved = host
            .monitor()
            .snapshot()
            .entries
            .iter()
            .zip(&views.entries)
            .filter(|(a, b)| (a.e_cpu, a.e_mem, a.e_avail) != (b.e_cpu, b.e_mem, b.e_avail))
            .count() as u64;
        assert!(moved > 0, "the charge moved a view");
        assert_eq!(host.mirrors - mirrored, moved);

        // Behind a publish-delay window the daemon hears nothing; the
        // firing after it mirrors each view that moved in any of them
        // once, however often it moved.
        host.inject_publish_delay(2);
        let mirrored = host.mirrors;
        let mut moved = std::collections::BTreeSet::new();
        for _ in 0..3 {
            host.charge(ids[2], Bytes::from_gib(1));
            let views = host.monitor().snapshot();
            round(&mut host);
            let now = host.monitor().snapshot();
            moved.extend(
                now.entries
                    .iter()
                    .zip(&views.entries)
                    .filter(|(a, b)| (a.e_cpu, a.e_mem, a.e_avail) != (b.e_cpu, b.e_mem, b.e_avail))
                    .map(|(a, _)| a.id),
            );
        }
        assert!(moved.contains(&ids[2].0), "the charges moved a view");
        assert_eq!(host.mirrors - mirrored, moved.len() as u64);
    }

    /// The paths the daemon answers beside `CONTAINER_PATHS` (the
    /// host-global files), and one it does not know.
    const OTHER_PATHS: [&str; 3] = [
        "/sys/devices/system/cpu/possible",
        "/sys/devices/system/cpu/present",
        "/sys/kernel/unrelated",
    ];

    /// Every `sysconf` key, with its wire name.
    const KEYS: [(Sysconf, &str); 5] = [
        (Sysconf::NprocessorsOnln, "nprocessors_onln"),
        (Sysconf::NprocessorsConf, "nprocessors_conf"),
        (Sysconf::PhysPages, "phys_pages"),
        (Sysconf::AvphysPages, "avphys_pages"),
        (Sysconf::PageSize, "pagesize"),
    ];

    /// The host's in-process answers equal its daemon's answers over the
    /// wire for every container caller and the host — health, every
    /// `sysconf` key, every path it renders (the bytes and generation of
    /// every CPU- and memory-keyed file and both cgroup interface files,
    /// the host-global hardware-property files, and ENOENT for an
    /// unknown path) — fresh, stale and degraded, with usage past the
    /// soft limit, through a publish outage, and through a launch, a
    /// limit update and a terminate during a stall.
    #[test]
    fn in_process_and_wire_answers_agree() {
        use arv_viewd::{RetryPolicy, WireClient, WireServer, KIND_READ, KIND_SYSCONF};
        let paths = CONTAINER_PATHS.into_iter().chain(OTHER_PATHS);
        let mut host = SimHost::paper_testbed();
        let socket =
            std::env::temp_dir().join(format!("arv-host-transport-{}.sock", std::process::id()));
        let server = host.viewd().expect("every host owns one").clone();
        let wire = WireServer::spawn(server, &socket).expect("bind the socket");
        let one_attempt = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        let mut wire_client = WireClient::new(wire.socket_path(), one_attempt);
        let container = |i: u64| {
            ContainerSpec::new(format!("c{i}"), 20)
                .cpus(4.0)
                .memory_reservation(Bytes::from_mib(512))
                .memory(Bytes::from_gib(2 + i))
        };
        let mut ids: Vec<CgroupId> = (0..3).map(|i| host.launch(&container(i))).collect();
        // A caller the daemon does not know reads the host's values, free
        // memory included. Returns the health of the first container.
        let mut compare = |host: &SimHost, callers: &[CgroupId]| -> ViewHealth {
            let fs = host.sysfs();
            let tick = host.now_tick();
            for caller in callers.iter().copied().map(Some).chain([None]) {
                let degraded = fs.health(caller).is_degraded();
                for (key, name) in KEYS {
                    let remote = wire_client.request(KIND_SYSCONF, caller, name);
                    let remote = remote.expect("answered").expect("a known key");
                    let value = String::from_utf8(remote.body).expect("decimal");
                    let local = fs.sysconf(caller, key).to_string();
                    assert_eq!(local, value, "tick {tick} {caller:?} {key:?}");
                    assert_eq!(degraded, remote.degraded, "tick {tick} {caller:?} {key:?}");
                }
                for path in paths.clone() {
                    let local = fs.read(caller, path).map(|view| {
                        let body = view.image.as_bytes().to_vec();
                        (body, view.generation, view.health.is_degraded())
                    });
                    let remote = wire_client.request(KIND_READ, caller, path);
                    let remote = remote
                        .expect("answered")
                        .map(|r| (r.body, r.generation, r.degraded));
                    assert_eq!(local, remote, "tick {tick} {caller:?} {path}");
                }
            }
            fs.health(Some(callers[0]))
        };
        // Keep each container at ≈95 % of its view: Algorithm 2 grows it,
        // and the usage follows past the soft limit.
        let step = |host: &mut SimHost, live: &[CgroupId]| {
            for id in live {
                let Some(ns) = host.monitor().namespace(*id) else {
                    continue; // launched while the monitor sleeps
                };
                let target = ns.effective_memory().mul_f64(0.95);
                let _ = host.charge(*id, target.saturating_sub(host.memory_usage(*id)));
            }
            let demands: Vec<_> = live.iter().map(|id| host.demand(*id, 2)).collect();
            host.step(&demands);
        };
        let past_soft = |host: &SimHost| {
            ids.iter().all(|id| {
                let ns = host.monitor().namespace(*id).expect("a live namespace");
                let usage = ns.effective_memory().saturating_sub(ns.available_memory());
                ns.effective_memory() > ns.soft_limit() && usage > ns.soft_limit()
            })
        };
        for _ in 0..40 {
            step(&mut host, &ids);
            assert!(compare(&host, &ids).is_fresh());
            if past_soft(&host) {
                break;
            }
        }
        assert!(past_soft(&host), "views and usage grew past the soft limit");

        // A stall past the budget, then recovery; no lifecycle change.
        let budget = STALENESS_BUDGET;
        host.inject_monitor_stall(budget + 3);
        let mut degraded = 0;
        for _ in 0..budget + 3 {
            step(&mut host, &ids);
            degraded += u64::from(compare(&host, &ids).is_degraded());
        }
        assert_eq!(degraded, 3, "the ticks past the budget");
        assert_eq!(
            host.sysconf(Some(ids[0]), Sysconf::AvphysPages),
            0,
            "usage past the soft limit leaves none of it"
        );
        step(&mut host, &ids);
        assert!(compare(&host, &ids).is_fresh());

        // A publish outage past the budget: the monitor keeps its views
        // moving, and neither path serves them until the daemon hears.
        host.inject_publish_delay(budget + 2);
        let mut degraded = 0;
        for _ in 0..budget + 2 {
            step(&mut host, &ids);
            degraded += u64::from(compare(&host, &ids).is_degraded());
        }
        assert_eq!(degraded, 2, "the ticks past the budget");
        step(&mut host, &ids);
        assert!(compare(&host, &ids).is_fresh());

        // A second stall past the budget, with a launch, a limit update
        // and a terminate inside it: the monitor hears of none of them
        // until it recovers, and neither may the daemon. Every container
        // ever launched is compared after each call and each firing.
        host.inject_monitor_stall(budget + 4);
        for _ in 0..budget + 1 {
            step(&mut host, &ids);
        }
        let mut every = ids.clone();
        every.push(host.launch(&container(3)));
        ids.push(every[3]);
        assert!(compare(&host, &every).is_degraded());
        step(&mut host, &ids);
        host.update_limits(ids[1], &container(1).cpus(2.0).memory(Bytes::from_gib(1)));
        assert!(compare(&host, &every).is_degraded());
        step(&mut host, &ids);
        host.terminate(ids.remove(2));
        assert!(compare(&host, &every).is_degraded());
        let mut fresh = 0;
        for _ in 0..6 {
            step(&mut host, &ids);
            fresh += u64::from(compare(&host, &every).is_fresh());
        }
        assert_eq!(fresh, 5, "the firings after the stall");
        let ns = host.monitor().namespace(every[3]).expect("the late launch");
        assert_eq!(
            host.sysconf(Some(every[3]), Sysconf::NprocessorsOnln),
            u64::from(ns.effective_cpu())
        );
        assert!(
            host.monitor().namespace(every[2]).is_none(),
            "the terminate"
        );
        assert_eq!(host.sysconf(Some(every[1]), Sysconf::NprocessorsOnln), 2);
        wire.shutdown();
    }

    #[test]
    fn restore_from_torn_journal_is_prefix_consistent() {
        let mut host = SimHost::paper_testbed();
        host.enable_journal(64); // deltas only after the initial checkpoint
        let ids = five_paper_containers(&mut host);
        grow_first(&mut host, &ids);
        let bytes = host.journal_bytes().expect("journaling enabled").to_vec();
        // Tear the tail mid-record: restore never panics, discards the
        // torn frame, and lands on the longest valid prefix.
        let cut = bytes.len() - 7;
        let ev = host.restore_from(&bytes[..cut]);
        assert!(ev.report.truncated_records >= 1);
        assert!(ev.report.snapshot.is_some());
        // Views are a valid earlier state: between the bounds, and the
        // monitor keeps adjusting from there.
        let cpu = e_cpu(&host, ids[0]);
        assert!((4..=10).contains(&cpu), "restored cpu {cpu} out of bounds");
        let d = vec![host.demand(ids[0], 20)];
        host.step(&d);
        assert!(e_cpu(&host, ids[0]) >= cpu);
    }

    #[test]
    fn restore_from_empty_journal_falls_back_to_cold_resync() {
        let mut host = SimHost::paper_testbed();
        host.enable_journal(8);
        let ids = five_paper_containers(&mut host);
        grow_first(&mut host, &ids);
        let ev = host.restore_from(&[]);
        assert!(ev.report.snapshot.is_none());
        assert!(ev.outcome.is_none(), "no checkpoint: cold resync");
        // Cold restart: views are rebuilt from static bounds (the floor).
        assert_eq!(e_cpu(&host, ids[0]), 4);
        assert!(host.watchdog_stats().resyncs >= 1);
    }

    #[test]
    fn fault_plan_crash_window_downs_the_daemon_then_warm_restarts() {
        use arv_sim_core::FaultConfig;
        let mut host = SimHost::paper_testbed();
        let server = ViewServer::new(host.viewd_host_spec(), 4);
        host.attach_viewd(server.clone());
        host.enable_journal(4);
        let ids = five_paper_containers(&mut host);
        grow_first(&mut host, &ids);
        let client = server.client();
        assert_eq!(client.sysconf(Some(ids[0]), Sysconf::NprocessorsOnln), 10);
        let crash_start = host.now_tick() + 1;
        host.set_fault_plan(FaultPlan::new(
            3,
            FaultConfig {
                crash_at: Some((crash_start, 2)),
                ..FaultConfig::quiet()
            },
        ));
        // Ride through the crash window and the restart tick.
        for _ in 0..4 {
            let d = vec![host.demand(ids[0], 20)];
            host.step(&d);
        }
        let ev = host.last_restore().expect("warm restart fired");
        assert_eq!(ev.tick, crash_start + 2);
        assert!(ev.outcome.is_some());
        // First-served views after the restart are the reconciled
        // journal state, not the cold floor.
        assert_eq!(e_cpu(&host, ids[0]), 10);
        assert_eq!(client.sysconf(Some(ids[0]), Sysconf::NprocessorsOnln), 10);
        assert!(client.health(Some(ids[0])).is_fresh());
        let m = server.metrics();
        assert_eq!(m.journal_truncated_records, 0);
        let w = host.watchdog_stats();
        assert!(w.missed_ticks >= 2, "crash window missed its deadlines");
        assert!(w.resyncs >= 1, "restart counts as a recovery pass");
    }

    #[test]
    fn a_store_refusing_the_setup_keeps_the_host_degraded_until_it_recovers() {
        use arv_persist::{FaultyStore, StoreFaults};
        let mut host = SimHost::paper_testbed();
        let ids = five_paper_containers(&mut host);
        let full = StoreFaults {
            full_at: Some((0, 50)),
            ..StoreFaults::default()
        };
        host.enable_journal_with_store(Box::new(FaultyStore::new(1, full)), 8);
        assert!(host.durability_lost(), "the disk refused the setup");
        while host.now_tick() < 60 {
            let d = vec![host.demand(ids[0], 20)];
            host.step(&d);
            let tick = host.now_tick();
            assert_eq!(host.durability_lost(), tick < 50, "tick {tick}");
        }
        assert_eq!(host.journal_io_errors(), 50, "the setup and ticks 1-49");
        let views = |s: arv_persist::Snapshot| -> Vec<_> {
            s.entries
                .iter()
                .map(|e| (e.id, e.e_cpu, e.e_mem, e.e_avail))
                .collect()
        };
        let bytes = host.journal_durable_bytes().expect("journaling");
        let restored = arv_persist::restore(&bytes).snapshot.expect("a checkpoint");
        assert_eq!(views(restored), views(host.monitor().snapshot()));
    }

    #[test]
    fn terminate_is_journaled_so_restart_drops_the_container() {
        let mut host = SimHost::paper_testbed();
        host.enable_journal(64);
        let ids = five_paper_containers(&mut host);
        grow_first(&mut host, &ids);
        host.terminate(ids[4]);
        let ev = host.crash_restart();
        assert!(host.monitor().namespace(ids[4]).is_none());
        let outcome = ev.outcome.expect("recover ran");
        assert_eq!(outcome.restored + outcome.reconciled, 4);
        assert_eq!(outcome.dropped, 0, "journal already recorded the remove");
    }

    /// A launch, a limit update and a terminate among 1 000 quota'd
    /// containers with the daemon attached: each op mirrors at most the
    /// views its recompute moved, plus the newcomer, and the firing after
    /// it exactly the views that firing moved — not every container at
    /// the op and again at the firing.
    #[test]
    fn a_lifecycle_op_mirrors_what_it_moved() {
        const N: usize = 1_000;
        type Served = BTreeMap<CgroupId, (Triple, u32, Bytes)>;
        let mut host = SimHost::new(64, Bytes::from_gib(2048));
        let spec = |i: usize| {
            ContainerSpec::new(format!("c{i}"), 4)
                .cpus(2.0)
                .memory(Bytes::from_gib(1))
        };
        let mut ids: Vec<CgroupId> = (0..N).map(|i| host.launch(&spec(i))).collect();
        let server = ViewServer::new(host.viewd_host_spec(), 4);
        host.attach_viewd(server.clone());
        let step = |host: &mut SimHost, ids: &[CgroupId]| {
            let d: Vec<_> = ids
                .iter()
                .step_by(7)
                .map(|id| host.demand(*id, 2))
                .collect();
            host.step(&d);
        };
        let served = |host: &SimHost| -> Served {
            let of = |ns: &arv_resview::SysNamespace| {
                (ns.views(), ns.cpu_bounds().lower, ns.soft_limit())
            };
            host.monitor()
                .namespaces()
                .values()
                .map(|ns| (ns.id(), of(ns)))
                .collect()
        };
        // Containers in both whose view or fallback differs.
        let moved = |a: &Served, b: &Served| -> u64 {
            a.iter()
                .filter(|(id, s)| b.get(id).is_some_and(|t| t != *s))
                .count() as u64
        };
        step(&mut host, &ids);
        for op in ["launch", "update_limits", "terminate"] {
            let before = served(&host);
            let counted = host.mirrors;
            let newcomer = match op {
                "launch" => {
                    ids.push(host.launch(&spec(N)));
                    1
                }
                "update_limits" => {
                    let smaller = spec(3).cpus(1.0).memory(Bytes::from_mib(512));
                    host.update_limits(ids[3], &smaller);
                    0
                }
                _ => {
                    host.terminate(ids.remove(5));
                    0
                }
            };
            let grew = host.mirrors - counted;
            let bound = moved(&before, &served(&host)) + newcomer;
            assert!(grew <= bound, "{op}: {grew} mirror calls, {bound} changes");
            let (before, counted) = (served(&host), host.mirrors);
            step(&mut host, &ids);
            let fired = moved(&before, &served(&host));
            assert_eq!(host.mirrors - counted, fired, "the firing after {op}");
        }
        assert_eq!(server.len(), N);
    }

    /// The test's own account of what the daemon must serve: the tick of
    /// the monitor's views it was last brought level with (on a healthy,
    /// unsuppressed firing or a lifecycle change), and each container's
    /// view and conservative fallback as of then.
    struct Level {
        fresh: u64,
        views: BTreeMap<CgroupId, (Triple, (u32, Bytes))>,
    }

    /// `(e_cpu, e_mem, e_avail)`.
    type Triple = (u32, Bytes, Bytes);

    impl Level {
        fn of(host: &SimHost, ids: &[CgroupId]) -> Level {
            let views = ids
                .iter()
                .map(|id| {
                    let ns = host.monitor().namespace(*id).expect("a live namespace");
                    (*id, (ns.views(), (ns.cpu_bounds().lower, ns.soft_limit())))
                })
                .collect();
            Level {
                fresh: host.monitor().fresh_tick(),
                views,
            }
        }
    }

    /// Every container is served at the host's one age, the values it
    /// was last brought level to (the fallback once degraded), and a
    /// generation that is even and moved iff the served triple did.
    fn check_served(
        server: &ViewServer,
        level: &Level,
        generations: &mut BTreeMap<CgroupId, (u64, Triple)>,
    ) {
        let client = server.client();
        let now = server.now_tick();
        let health = ViewHealth::from_age(now - level.fresh);
        for (id, (view, (fb_cpus, fb_mem))) in &level.views {
            assert_eq!(client.health(Some(*id)), health, "tick {now} {id:?}");
            let (cpus, mem, avail) = if health.is_degraded() {
                // The soft limit less the usage the view implies.
                (*fb_cpus, *fb_mem, fb_mem.saturating_sub(view.1 - view.2))
            } else {
                *view
            };
            let sysconf = |q| client.sysconf(Some(*id), q);
            assert_eq!(sysconf(Sysconf::NprocessorsOnln), u64::from(cpus));
            assert_eq!(
                sysconf(Sysconf::PhysPages),
                mem.as_u64() / arv_resview::PAGE_SIZE
            );
            assert_eq!(
                sysconf(Sysconf::AvphysPages),
                avail.as_u64() / arv_resview::PAGE_SIZE
            );
            let meminfo = client.read(Some(*id), "/proc/meminfo").expect("a view");
            assert_eq!(*meminfo.image, arv_resview::render::meminfo(mem, avail));
            let generation = client.generation(*id).expect("registered");
            assert_eq!(generation % 2, 0, "tick {now} {id:?}");
            if let Some((was, seen)) = generations.insert(*id, (generation, *view)) {
                assert_eq!(generation != was, *view != seen, "tick {now} {id:?}");
            }
        }
    }

    #[test]
    fn served_views_follow_the_monitor_across_faults() {
        use arv_sim_core::{FaultConfig, SimRng};
        const STALL: (u64, u64) = (150, 8);
        // Publish-delay windows: one within the staleness budget, one past it.
        const DELAYS: [(u64, u64); 2] = [(60, 3), (210, 6)];
        let mut host = SimHost::paper_testbed();
        let server = ViewServer::new(host.viewd_host_spec(), 4);
        host.attach_viewd(server.clone());
        host.enable_journal(16);
        host.set_fault_plan(FaultPlan::new(
            1,
            FaultConfig {
                stall_at: Some(STALL),
                ..FaultConfig::quiet()
            },
        ));
        let mut spec_rng = SimRng::seed_from_u64(0xF2E5);
        let mut spec = |name: String| {
            ContainerSpec::new(name, 20)
                .cpus(spec_rng.range_u64(2, 11) as f64)
                .cpu_shares(512 * spec_rng.range_u64(1, 4))
                .memory_reservation(Bytes::from_mib(256 * spec_rng.range_u64(1, 4)))
                .memory(Bytes::from_gib(spec_rng.range_u64(1, 4)))
        };
        let mut ids: Vec<CgroupId> = (0..6)
            .map(|i| host.launch(&spec(format!("c{i}"))))
            .collect();
        let mut level = Level::of(&host, &ids);
        let mut generations = BTreeMap::new();
        let mut rng = SimRng::seed_from_u64(0x5EED);
        let (mut delayed, mut held, mut caught) = (0, None, 0);

        for _ in 0..360 {
            // Lifecycle changes land between firings. Launches and
            // terminates stay outside the fault windows, since a
            // container the monitor has not heard of has no view to check
            // against; a limit update inside the stall changes nothing
            // the daemon may serve until the monitor hears of it.
            let now = host.now_tick();
            let lifecycle = match now {
                30 | 100 | 240 => {
                    ids.push(host.launch(&spec(format!("l{now}"))));
                    true
                }
                45 | 180 => {
                    let id = ids.remove(rng.range_u64(0, ids.len() as u64) as usize);
                    host.terminate(id);
                    generations.remove(&id);
                    true
                }
                80 | 154 | 250 => {
                    let id = ids[rng.range_u64(0, ids.len() as u64) as usize];
                    host.update_limits(id, &spec(format!("u{now}")));
                    true
                }
                270 => {
                    let cells: Vec<_> = ids.iter().map(|id| server.cell(*id)).collect();
                    host.crash_restart();
                    for (id, cell) in ids.iter().zip(cells) {
                        let (was, is) = (cell.expect("registered"), server.cell(*id));
                        assert!(std::sync::Arc::ptr_eq(&was, &is.expect("registered")));
                    }
                    true
                }
                _ => false,
            };
            if lifecycle {
                level = Level::of(&host, &ids);
                check_served(&server, &level, &mut generations);
            }
            if let Some((_, len)) = DELAYS.iter().find(|(start, _)| *start == now) {
                host.inject_publish_delay(*len);
                delayed = *len;
            }

            let mut demands = Vec::new();
            for id in &ids {
                if rng.range_u64(0, 2) == 0 {
                    demands.push(host.demand(*id, rng.range_u64(1, 16) as u32));
                }
            }
            for _ in 0..2 {
                let id = ids[rng.range_u64(0, ids.len() as u64) as usize];
                let amount = Bytes::from_mib(rng.range_u64(16, 256));
                if rng.range_u64(0, 3) == 0 {
                    host.uncharge(id, amount);
                } else {
                    let _ = host.charge(id, amount);
                }
            }
            host.step(&demands);
            let now = host.now_tick();
            assert_eq!(server.now_tick(), now, "one firing per step");

            if !(STALL.0..STALL.0 + STALL.1).contains(&now) {
                if delayed > 0 {
                    delayed -= 1;
                    held = Some(Level::of(&host, &ids).views);
                } else {
                    let fresh = Level::of(&host, &ids);
                    // Views that moved inside the window and stood still
                    // on this firing: not in its dirty set, still news.
                    if let Some(held) = held.take() {
                        caught += ids
                            .iter()
                            .filter(|id| {
                                held[*id].0 != level.views[*id].0
                                    && held[*id].0 == fresh.views[*id].0
                            })
                            .count();
                    }
                    level = fresh;
                }
            }
            check_served(&server, &level, &mut generations);
        }
        assert!(caught > 0, "no view moved inside a publish-delay window");
        let m = server.metrics();
        assert!(m.stale_serves > 0 && m.degraded_serves > 0);
        assert!(host.watchdog_stats().missed_ticks >= STALL.1);
        assert!(host.last_restore().is_some_and(|ev| ev.outcome.is_some()));
    }

    mod moved_props {
        use super::*;
        use arv_fleet::{encode_ack, Ack, FleetPolicy};
        use arv_persist::{FaultyStore, StoreFaults};
        use proptest::prelude::*;

        const HOST: u32 = 5;

        fn spec(name: String, quota: u32, mem_gib: u64) -> ContainerSpec {
            ContainerSpec::new(name, 8)
                .cpus(f64::from(1 + quota % 6))
                .cpu_shares(512 * u64::from(1 + quota % 3))
                .memory_reservation(Bytes::from_mib(256))
                .memory(Bytes::from_gib(1 + mem_gib % 2))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Random steps, launches, terminates, limit updates, tenant
            /// changes, stalls, publish delays, warm restarts, resync
            /// and policy ACKs and reconnects, over a journal on a
            /// faulty disk: after every operation the host's periphery,
            /// fed what moved, has queued exactly the frames of a shadow
            /// periphery fed the monitor's whole snapshot at every
            /// firing, with the same ACKs, tenants and durability.
            #[test]
            fn moved_observations_ship_what_whole_snapshots_would(
                ops in prop::collection::vec((0u8..17, 0u32..64, 0u32..8), 1..80),
                store_seed in 0u64..1 << 16,
            ) {
                let mut host = SimHost::new(8, Bytes::from_gib(6));
                let server = ViewServer::new(host.viewd_host_spec(), 2);
                host.attach_viewd(server);
                let faults = StoreFaults {
                    write_err_prob: 0.05,
                    torn_prob: 0.05,
                    ..StoreFaults::default()
                };
                host.enable_journal_with_store(Box::new(FaultyStore::new(store_seed, faults)), 4);
                let mut ids: Vec<CgroupId> = (0..3u32)
                    .map(|i| host.launch(&spec(format!("c{i}"), i, u64::from(i))))
                    .collect();
                host.attach_periphery(Periphery::new(HOST));
                let mut shadow = Periphery::new(HOST);
                let observe = |shadow: &mut Periphery, host: &SimHost, stalled: bool| {
                    shadow.set_durability(host.durability_lost(), host.journal_io_errors());
                    shadow.observe(&host.monitor().snapshot(), stalled, 0);
                };
                observe(&mut shadow, &host, false);
                let mut policy_epoch = 0;
                for (step, (op, a, b)) in ops.into_iter().enumerate() {
                    let pick = ids[a as usize % ids.len()];
                    match op {
                        0..=7 => {
                            for (i, id) in ids.iter().enumerate() {
                                let amount = Bytes::from_mib(64 * u64::from(1 + b));
                                if (a >> (i % 6)) & 1 == 1 {
                                    let _ = host.charge(*id, amount);
                                } else if i % 2 == 0 {
                                    host.uncharge(*id, amount);
                                }
                            }
                            let demands: Vec<_> = ids
                                .iter()
                                .enumerate()
                                .filter(|(i, _)| (a >> (i % 6)) & 1 == 1)
                                .map(|(_, id)| host.demand(*id, 1 + b))
                                .collect();
                            let stalled = host.monitor_stalled();
                            host.step(&demands);
                            observe(&mut shadow, &host, stalled);
                        }
                        8 if ids.len() < 8 => {
                            ids.push(host.launch(&spec(format!("l{step}"), a, u64::from(b))));
                        }
                        9 if ids.len() > 1 => {
                            ids.retain(|id| *id != pick);
                            host.terminate(pick);
                        }
                        10 => host.update_limits(pick, &spec(format!("u{step}"), b, u64::from(a))),
                        11 => {
                            host.periphery_mut().expect("attached").set_tenant(pick.0, b);
                            shadow.set_tenant(pick.0, b);
                        }
                        12 => host.inject_monitor_stall(u64::from(1 + b % 4)),
                        13 => host.inject_publish_delay(u64::from(1 + b % 4)),
                        14 => {
                            host.crash_restart();
                        }
                        15 => {
                            let resync = a % 2 == 0;
                            let policy = (!resync).then(|| {
                                policy_epoch += 1;
                                FleetPolicy {
                                    epoch: policy_epoch,
                                    max_batch: 1 + b,
                                    rate_burst: 1 + a % 8,
                                    ..FleetPolicy::default()
                                }
                            });
                            let ack = Ack {
                                host: HOST,
                                expected_seq: 0,
                                ctl_epoch: 0,
                                resync,
                                not_leader: false,
                                policy,
                            };
                            prop_assert!(host.deliver_fleet_ack(&encode_ack(&ack)));
                            shadow.handle_ack(&ack);
                        }
                        _ => {
                            host.periphery_mut().expect("attached").on_reconnect();
                            shadow.on_reconnect();
                        }
                    }
                    prop_assert_eq!(host.take_fleet_frames(), shadow.take_frames(), "op {}", step);
                    prop_assert_eq!(host.periphery().expect("attached").stats(), shadow.stats());
                }
            }
        }
    }

    mod lifecycle_props {
        use super::*;
        use arv_resview::{render, PathId, ViewSnapshot};
        use proptest::prelude::*;

        fn spec(name: String, quota: u32, mem_gib: u64) -> ContainerSpec {
            ContainerSpec::new(name, 8)
                .cpus(f64::from(1 + quota % 6))
                .cpu_shares(512 * u64::from(1 + quota % 3))
                .memory_reservation(Bytes::from_mib(256))
                .memory(Bytes::from_gib(1 + mem_gib % 3))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Random launches, terminates, limit updates, steps (with
            /// charges), warm restarts and re-attaches to a daemon that
            /// already holds cells — one for an id the host never had,
            /// and one for a live container — on a journaling host: after
            /// every operation the host's containers, the cgroup
            /// manager's groups, the monitor's namespaces, the daemon's
            /// cells and the host's handles to them hold the same ids,
            /// each handle is the daemon's own cell, each cell holds its
            /// namespace's fallback pair (lower bound, soft limit), and
            /// every live container is served, for every `sysconf` key
            /// and every path, the monitor's view — or that fallback,
            /// at the monitor's age past the budget.
            #[test]
            fn every_table_agrees_and_serves_the_monitors_view(
                ops in prop::collection::vec((0u8..8, 0u32..64, 0u32..8), 1..60),
            ) {
                let mut host = SimHost::new(8, Bytes::from_gib(6));
                host.enable_journal(4);
                let mut live: Vec<CgroupId> = Vec::new();
                for (step, (op, a, b)) in ops.into_iter().enumerate() {
                    let pick = (!live.is_empty()).then(|| live[a as usize % live.len()]);
                    match (op, pick) {
                        (0, _) if live.len() < 8 => {
                            live.push(host.launch(&spec(format!("l{step}"), a, u64::from(b))));
                        }
                        (1, Some(id)) => {
                            live.retain(|l| *l != id);
                            host.terminate(id);
                        }
                        (2, Some(id)) => {
                            host.update_limits(id, &spec(format!("u{step}"), b, u64::from(a)));
                        }
                        (6, _) => {
                            host.crash_restart();
                        }
                        (7, _) => {
                            let server = ViewServer::new(host.viewd_host_spec(), 2);
                            let e_mem = arv_resview::EffectiveMemory::new(
                                Bytes::from_mib(256),
                                Bytes::from_gib(1),
                                Bytes::from_mib(64),
                                Bytes::from_mib(128),
                                EffectiveMemoryConfig::default(),
                            );
                            let bounds = arv_resview::CpuBounds { lower: 1, upper: 2 };
                            for id in [CgroupId(1_000 + a)].into_iter().chain(pick) {
                                server.register(id, bounds, EffectiveCpuConfig::default(), e_mem.clone());
                            }
                            host.attach_viewd(server);
                        }
                        _ => {
                            for (i, id) in live.iter().enumerate() {
                                if (a >> (i % 6)) & 1 == 1 {
                                    let _ = host.charge(*id, Bytes::from_mib(64 * u64::from(1 + b)));
                                }
                            }
                            let demands: Vec<_> = live.iter().map(|id| host.demand(*id, 1 + b)).collect();
                            host.step(&demands);
                        }
                    }
                    let server = host.viewd().expect("every host owns one");
                    let tables = [
                        host.containers.keys().copied().collect::<Vec<_>>(),
                        host.cgm.iter().map(|(id, _)| id).collect(),
                        host.monitor().namespaces().keys().copied().collect(),
                        {
                            let mut ids = server.ids();
                            ids.sort_unstable();
                            ids
                        },
                        host.cells.keys().copied().collect(),
                    ];
                    let mut want = live.clone();
                    want.sort_unstable();
                    for table in &tables {
                        prop_assert_eq!(table, &want, "op {}", step);
                    }
                    for (id, cell) in &host.cells {
                        let served = server.cell(*id).expect("registered");
                        prop_assert!(Arc::ptr_eq(cell, &served), "op {} {:?}", step, id);
                    }
                    let mon = host.monitor();
                    let health = ViewHealth::from_age(mon.now_tick() - mon.fresh_tick());
                    let (fs, spec) = (host.sysfs(), host.viewd_host_spec());
                    for id in &live {
                        let ns = mon.namespace(*id).expect("a live namespace");
                        let fallback = server.cell(*id).expect("registered").degraded_snapshot();
                        prop_assert_eq!(
                            (fallback.cpus, fallback.bytes),
                            (ns.cpu_bounds().lower, ns.soft_limit()),
                            "op {} {:?}", step, id
                        );
                        let (cpus, bytes, avail) = ns.views();
                        let mut view = ViewSnapshot { cpus, bytes, avail, generation: 0 };
                        if health.is_degraded() {
                            view = view.fallback(ns.cpu_bounds().lower, ns.soft_limit());
                        }
                        let caller = Some(*id);
                        prop_assert_eq!(fs.health(caller), health, "op {} {:?}", step, id);
                        for (key, _) in KEYS {
                            prop_assert_eq!(
                                fs.sysconf(caller, key),
                                view.sysconf(key),
                                "op {} {:?} {:?}", step, id, key
                            );
                        }
                        for path in CONTAINER_PATHS.into_iter().chain(OTHER_PATHS) {
                            let want = PathId::resolve(path, caller).map(|(path, caller)| {
                                let view = if caller.is_some() { view } else { spec.view() };
                                render::image(path, &view, spec.cfs_period_us)
                            });
                            prop_assert_eq!(
                                fs.read(caller, path).map(|view| view.image.to_string()),
                                want,
                                "op {} {:?} {}", step, id, path
                            );
                        }
                    }
                }
            }
        }
    }

    impl SimHost {
        /// Counters from the current fault plan, if one is installed.
        fn fault_stats(&self) -> Option<arv_sim_core::FaultStats> {
            self.fault_plan.as_ref().map(|p| p.stats())
        }
    }
}

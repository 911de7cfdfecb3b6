//! A live, multithreaded resource-view registry.
//!
//! The simulation-side [`crate::monitor::NsMonitor`] is single-threaded by
//! design; this module reproduces the *runtime* structure the paper
//! evaluates in §5.4: a kernel-side updater that refreshes every
//! namespace once per scheduling period, concurrent with application
//! queries, **with no locking between updater and queries**. Each
//! namespace is an atomic cell — queries are plain atomic loads, the
//! updater serializes per-cell algorithm state behind an uncontended
//! mutex. The `overhead` bench measures both paths against the paper's
//! reported 1 µs update and 5 µs query costs.

use arv_cgroups::{Bytes, CgroupId};
use arv_telemetry::{CpuDecision, DecisionCause, MemDecision, Tracer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::effective_cpu::{CpuBounds, CpuSample, EffectiveCpu, EffectiveCpuConfig};
use crate::effective_mem::{EffectiveMemory, MemSample};

/// The tick the cells' traced decisions carry: the registry has no
/// update-timer clock (a driver's lives beside it, in its server).
const UNTICKED: u64 = 0;

/// One update observation delivered by the host sampler.
#[derive(Debug, Clone, Copy)]
pub struct LiveSample {
    /// The scheduler observation.
    pub cpu: CpuSample,
    /// The memory observation.
    pub mem: MemSample,
}

/// Source of per-container observations for the monitor thread.
pub trait HostSampler: Send + Sync + 'static {
    /// Sample container `id`; `None` means the container vanished and its
    /// cell should simply be skipped this round.
    fn sample(&self, id: CgroupId) -> Option<LiveSample>;
}

/// A cgroup-settings change delivered to the monitor thread — the live
/// analogue of the kernel hook the paper adds to cgroups ("invoke
/// ns_monitor … if there is a change to the cgroups settings", §3.2).
#[derive(Debug, Clone, Copy)]
pub struct CgroupChange {
    /// The cgroup this entry belongs to.
    pub id: CgroupId,
    /// The recomputed static CPU bounds.
    pub bounds: CpuBounds,
    /// The new soft memory limit.
    pub soft: Bytes,
    /// The new hard memory limit.
    pub hard: Bytes,
}

/// A consistent point-in-time view published by an [`NsCell`].
///
/// `cpus` and `bytes` are guaranteed to come from the *same* update —
/// [`NsCell::snapshot`] retries across concurrent writes (seqlock), so a
/// reader can never observe the CPU view of one generation paired with
/// the memory view of another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewSnapshot {
    /// Effective CPU count at this generation.
    pub cpus: u32,
    /// Effective memory at this generation.
    pub bytes: Bytes,
    /// Unused portion of the view at this generation (effective memory
    /// minus the last observed usage, clamped at zero).
    pub avail: Bytes,
    /// Generation stamp: even, monotonically increasing; bumped by two on
    /// every publish that moves a value. View servers key render caches
    /// on it.
    pub generation: u64,
}

/// The atomic per-container namespace cell.
///
/// `effective_cpu`/`effective_memory` are the published views (lock-free
/// reads); `state` carries the algorithm state machines and is touched
/// only by the updater. A seqlock-style `generation` counter brackets
/// every publish: it is odd while a write is in flight and even once the
/// pair of values is consistent, letting readers take untorn
/// [`ViewSnapshot`]s without a lock.
#[derive(Debug)]
pub struct NsCell {
    e_cpu: AtomicU32,
    e_mem: AtomicU64,
    e_avail: AtomicU64,
    updates: AtomicU64,
    generation: AtomicU64,
    // The conservative fallback view (Algorithm 1's lower bound,
    // Algorithm 2's soft limit) served once the host's views age past
    // the staleness budget. Freshness itself is not per cell: the server
    // keeps one word per host.
    fb_cpu: AtomicU32,
    fb_mem: AtomicU64,
    state: Mutex<CellState>,
    // Decision provenance: which container this cell belongs to and the
    // (possibly disabled) shared trace ring. Written once at
    // construction, read-only afterwards.
    id: CgroupId,
    tracer: Tracer,
}

#[derive(Debug)]
struct CellState {
    cpu: EffectiveCpu,
    mem: EffectiveMemory,
}

impl NsCell {
    fn new(id: CgroupId, cpu: EffectiveCpu, mem: EffectiveMemory, tracer: Tracer) -> NsCell {
        NsCell {
            e_cpu: AtomicU32::new(cpu.value()),
            e_mem: AtomicU64::new(mem.value().as_u64()),
            e_avail: AtomicU64::new(mem.value().as_u64()),
            updates: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            fb_cpu: AtomicU32::new(cpu.bounds().lower),
            fb_mem: AtomicU64::new(mem.soft_limit().as_u64()),
            state: Mutex::new(CellState { cpu, mem }),
            id,
            tracer,
        }
    }

    /// The container this cell publishes views for.
    #[inline]
    pub fn id(&self) -> CgroupId {
        self.id
    }

    /// Lock-free read of effective CPU (the container-side `sysconf`).
    #[inline]
    pub fn effective_cpu(&self) -> u32 {
        self.e_cpu.load(Ordering::Acquire)
    }

    /// Lock-free read of effective memory.
    #[inline]
    pub fn effective_memory(&self) -> Bytes {
        Bytes(self.e_mem.load(Ordering::Acquire))
    }

    /// Lock-free read of available memory (view minus last observed
    /// usage, clamped at zero).
    #[inline]
    pub fn available_memory(&self) -> Bytes {
        Bytes(self.e_avail.load(Ordering::Acquire))
    }

    /// Current publish generation: even when stable, odd while an update
    /// is mid-flight. Monotone per cell.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// A consistent `(cpus, bytes, generation)` triple (seqlock read):
    /// retries while a writer is mid-publish or raced past us, so the two
    /// values always belong to the same update.
    pub fn snapshot(&self) -> ViewSnapshot {
        loop {
            let g1 = self.generation.load(Ordering::Acquire);
            if g1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let cpus = self.e_cpu.load(Ordering::Acquire);
            let bytes = Bytes(self.e_mem.load(Ordering::Acquire));
            let avail = Bytes(self.e_avail.load(Ordering::Acquire));
            if self.generation.load(Ordering::Acquire) == g1 {
                return ViewSnapshot {
                    cpus,
                    bytes,
                    avail,
                    generation: g1,
                };
            }
            std::hint::spin_loop();
        }
    }

    /// Number of updates applied so far.
    pub fn update_count(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }

    /// Publish `(cpu, mem, avail)` under the seqlock: generation goes
    /// odd, the values land, generation goes even. Callers hold the state
    /// mutex, so writers are already serialized — which also makes the
    /// plain reads below exact. A publish that moves nothing leaves the
    /// generation alone: a generation names a *value*, so images cached
    /// under it stay valid for as long as the value does.
    fn publish(&self, cpu: u32, mem: Bytes, avail: Bytes) {
        let published = (
            self.effective_cpu(),
            self.effective_memory(),
            self.available_memory(),
        );
        if published == (cpu, mem, avail) {
            return;
        }
        self.generation.fetch_add(1, Ordering::AcqRel);
        self.e_cpu.store(cpu, Ordering::Release);
        self.e_mem.store(mem.as_u64(), Ordering::Release);
        self.e_avail.store(avail.as_u64(), Ordering::Release);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Apply one update (the per-period refresh). Called by the monitor
    /// thread; also directly from benches to measure the update cost.
    ///
    /// Lock poisoning is recovered everywhere in this module: a panicked
    /// updater must not take the registry down for every reader, and the
    /// seqlock bracket means a half-applied update is never observable.
    pub fn apply(&self, sample: LiveSample) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let cpu_d = st.cpu.update_explained(sample.cpu);
        let mem_d = st.mem.update_explained(sample.mem);
        let cpu = st.cpu.value();
        let mem = st.mem.value();
        let avail = mem.saturating_sub(sample.mem.usage);
        self.publish(cpu, mem, avail);
        self.updates.fetch_add(1, Ordering::Relaxed);
        if let Some(d) = cpu_d {
            self.tracer.emit_cpu(UNTICKED, self.id, d);
        }
        if let Some(d) = mem_d {
            self.tracer.emit_mem(UNTICKED, self.id, d);
        }
    }

    /// Refresh static bounds/limits (cgroup change). The conservative
    /// fallback view tracks the new bounds too.
    pub fn set_static(&self, bounds: CpuBounds, soft: Bytes, hard: Bytes) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let cpu_before = st.cpu.value();
        let mem_before = st.mem.value();
        st.cpu.set_bounds(bounds);
        st.mem.set_limits(soft, hard);
        self.fb_cpu.store(bounds.lower, Ordering::Release);
        self.fb_mem.store(soft.as_u64(), Ordering::Release);
        let cpu = st.cpu.value();
        let mem = st.mem.value();
        let avail = mem.saturating_sub(st.mem.last_usage().unwrap_or(Bytes(0)));
        self.publish(cpu, mem, avail);
        if cpu != cpu_before {
            self.tracer.emit_cpu(
                UNTICKED,
                self.id,
                CpuDecision {
                    cause: DecisionCause::StaticRefresh,
                    before: cpu_before,
                    after: cpu,
                    utilization: 0.0,
                    had_slack: false,
                },
            );
        }
        if mem != mem_before {
            self.tracer.emit_mem(
                UNTICKED,
                self.id,
                MemDecision {
                    cause: DecisionCause::StaticRefresh,
                    before: mem_before,
                    after: mem,
                    usage: Bytes(0),
                    free: Bytes(0),
                },
            );
        }
    }

    /// Publish externally computed views, bypassing the cell's own
    /// algorithm state (still seqlock-bracketed and serialized with other
    /// writers). This is the mirror path for drivers — the simulated host
    /// runs Algorithms 1–2 in its single-threaded `NsMonitor` and pushes
    /// the results here so the view daemon serves them concurrently.
    pub fn force_publish(&self, cpus: u32, mem: Bytes, avail: Bytes) {
        let _st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.publish(cpus, mem, avail);
        self.updates.fetch_add(1, Ordering::Relaxed);
    }

    /// Resume this cell's views from journaled values (warm restart).
    ///
    /// The values run through the algorithm state machines'
    /// clamped-restore paths, so a journaled view that fell outside the
    /// current static bounds is reconciled rather than trusted. The
    /// reconciled pair is published under the seqlock and returned.
    pub fn restore_views(&self, e_cpu: u32, e_mem: Bytes, avail: Bytes) -> (u32, Bytes) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let cpu = st.cpu.restore_value(e_cpu);
        let mem = st.mem.restore_value(e_mem);
        self.publish(cpu, mem, avail.min(mem));
        (cpu, mem)
    }

    /// Refresh the conservative fallback view (Algorithm 1's lower
    /// bound, the soft memory limit) served while the cell is degraded.
    pub fn set_fallback(&self, cpus: u32, mem: Bytes) {
        self.fb_cpu.store(cpus, Ordering::Release);
        self.fb_mem.store(mem.as_u64(), Ordering::Release);
    }

    /// The conservative fallback view, served in place of
    /// [`snapshot`](NsCell::snapshot) once the view is degraded: CPU at
    /// Algorithm 1's lower bound, memory reset to the soft limit — the
    /// paper's own safe resets, legal under any interleaving. Available
    /// memory never exceeds either the fallback size or the last
    /// published availability.
    pub fn degraded_snapshot(&self) -> ViewSnapshot {
        let last = self.snapshot();
        let bytes = Bytes(self.fb_mem.load(Ordering::Acquire));
        ViewSnapshot {
            cpus: self.fb_cpu.load(Ordering::Acquire),
            bytes,
            avail: last.avail.min(bytes),
            generation: last.generation,
        }
    }
}

/// Registry of live namespace cells, shared between the monitor thread
/// and application query paths.
#[derive(Debug, Clone, Default)]
pub struct LiveRegistry {
    cells: Arc<RwLock<HashMap<CgroupId, Arc<NsCell>>>>,
    tracer: Tracer,
}

impl LiveRegistry {
    /// An empty registry.
    pub fn new() -> LiveRegistry {
        LiveRegistry::default()
    }

    /// An empty registry whose cells emit decision provenance into
    /// `tracer`.
    pub fn with_tracer(tracer: Tracer) -> LiveRegistry {
        LiveRegistry {
            cells: Arc::default(),
            tracer,
        }
    }

    /// The registry's tracer (disabled unless constructed via
    /// [`with_tracer`](LiveRegistry::with_tracer)).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Register a container and get its query handle.
    pub fn register(
        &self,
        id: CgroupId,
        bounds: CpuBounds,
        cpu_cfg: EffectiveCpuConfig,
        mem: EffectiveMemory,
    ) -> Arc<NsCell> {
        let cell = Arc::new(NsCell::new(
            id,
            EffectiveCpu::new(bounds, cpu_cfg),
            mem,
            self.tracer.clone(),
        ));
        let prev = self
            .cells
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id, Arc::clone(&cell));
        assert!(prev.is_none(), "container {id:?} already registered");
        cell
    }

    /// Drop a container's cell. Outstanding handles keep working on the
    /// last published values (the namespace outlives the registry entry,
    /// like a namespace held open by a process).
    pub fn unregister(&self, id: CgroupId) {
        self.cells
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&id);
    }

    /// Look up a container's cell.
    pub fn get(&self, id: CgroupId) -> Option<Arc<NsCell>> {
        self.cells
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&id)
            .cloned()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.cells.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.cells
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty()
    }

    /// Capture every cell's published view for journaling, every entry
    /// stamped with the caller's `tick` (the registry itself has no
    /// clock, and freshness is not per cell).
    pub fn checkpoint(&self, tick: u64) -> arv_persist::Snapshot {
        let mut entries: Vec<arv_persist::ViewState> = self
            .snapshot()
            .into_iter()
            .map(|(id, cell)| {
                let v = cell.snapshot();
                arv_persist::ViewState {
                    id: id.0,
                    e_cpu: v.cpus,
                    e_mem: v.bytes.as_u64(),
                    e_avail: v.avail.as_u64(),
                    last_tick: tick,
                }
            })
            .collect();
        entries.sort_by_key(|e| e.id);
        arv_persist::Snapshot { tick, entries }
    }

    /// Warm restart: resume registered cells from a journaled snapshot.
    ///
    /// Containers must already be registered (registration rebuilds the
    /// static bounds from the live hierarchy); this pass only resumes
    /// the *dynamic* views, clamped to those fresh bounds. Snapshot
    /// entries without a registered cell are dropped. Returns the same
    /// outcome counters as [`NsMonitor`](crate::monitor::NsMonitor)'s
    /// [`recover`](crate::monitor::NsMonitor::recover).
    pub fn restore(&self, snap: &arv_persist::Snapshot) -> crate::monitor::RecoverOutcome {
        let mut out = crate::monitor::RecoverOutcome::default();
        let mut seen = 0usize;
        for entry in &snap.entries {
            let Some(cell) = self.get(CgroupId(entry.id)) else {
                out.dropped += 1;
                continue;
            };
            seen += 1;
            let (cpu, mem) =
                cell.restore_views(entry.e_cpu, Bytes(entry.e_mem), Bytes(entry.e_avail));
            out.restored += 1;
            if cpu != entry.e_cpu || mem != Bytes(entry.e_mem) {
                out.reconciled += 1;
            }
        }
        out.admitted = self.len().saturating_sub(seen);
        out
    }

    fn snapshot(&self) -> Vec<(CgroupId, Arc<NsCell>)> {
        self.cells
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(id, c)| (*id, Arc::clone(c)))
            .collect()
    }
}

/// The background monitor thread: samples every registered container each
/// interval, applies the update, and drains cgroup-change events sent
/// through [`LiveMonitor::change_sender`].
#[derive(Debug)]
pub struct LiveMonitor {
    stop: Arc<AtomicBool>,
    changes: Sender<CgroupChange>,
    handle: Option<JoinHandle<()>>,
}

impl LiveMonitor {
    /// Spawn the monitor over `registry`, polling `sampler` every
    /// `interval` (the paper uses one CFS scheduling period).
    pub fn spawn(
        registry: LiveRegistry,
        sampler: Arc<dyn HostSampler>,
        interval: Duration,
    ) -> LiveMonitor {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let (tx, rx): (Sender<CgroupChange>, Receiver<CgroupChange>) = channel();
        let handle = std::thread::Builder::new()
            .name("ns_monitor".into())
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    // Cgroup events first: static bounds must be in place
                    // before the periodic update clamps against them.
                    while let Ok(change) = rx.try_recv() {
                        if let Some(cell) = registry.get(change.id) {
                            cell.set_static(change.bounds, change.soft, change.hard);
                        }
                    }
                    for (id, cell) in registry.snapshot() {
                        if let Some(sample) = sampler.sample(id) {
                            cell.apply(sample);
                        }
                    }
                    std::thread::sleep(interval);
                }
            })
            .expect("spawn ns_monitor thread");
        LiveMonitor {
            stop,
            changes: tx,
            handle: Some(handle),
        }
    }

    /// Channel end for delivering cgroup-settings changes (container
    /// creation, `docker update`, …) to the monitor thread.
    pub fn change_sender(&self) -> Sender<CgroupChange> {
        self.changes.clone()
    }

    /// Signal the thread to stop and wait for it.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for LiveMonitor {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effective_mem::EffectiveMemoryConfig;
    use arv_sim_core::SimDuration;

    const T: SimDuration = SimDuration::from_millis(24);

    fn mk_mem() -> EffectiveMemory {
        EffectiveMemory::new(
            Bytes::from_mib(500),
            Bytes::from_gib(1),
            Bytes::from_mib(64),
            Bytes::from_mib(128),
            EffectiveMemoryConfig::default(),
        )
    }

    fn saturated_sample() -> LiveSample {
        // Usage of 10 CPUs keeps utilization above 95% for any view ≤ 10.
        LiveSample {
            cpu: CpuSample {
                usage: T * 10,
                period: T,
                slack: T,
            },
            mem: MemSample {
                free: Bytes::from_gib(64),
                usage: Bytes::from_mib(490),
                reclaiming: false,
            },
        }
    }

    #[test]
    fn register_and_query() {
        let reg = LiveRegistry::new();
        let cell = reg.register(
            CgroupId(0),
            CpuBounds {
                lower: 4,
                upper: 10,
            },
            EffectiveCpuConfig::default(),
            mk_mem(),
        );
        assert_eq!(cell.effective_cpu(), 4);
        assert_eq!(cell.effective_memory(), Bytes::from_mib(500));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn apply_publishes_new_values() {
        let reg = LiveRegistry::new();
        let cell = reg.register(
            CgroupId(0),
            CpuBounds {
                lower: 4,
                upper: 10,
            },
            EffectiveCpuConfig::default(),
            mk_mem(),
        );
        cell.apply(saturated_sample());
        assert_eq!(cell.effective_cpu(), 5);
        assert!(cell.effective_memory() > Bytes::from_mib(500));
        assert_eq!(cell.update_count(), 1);
    }

    #[test]
    fn handles_survive_unregister() {
        let reg = LiveRegistry::new();
        let cell = reg.register(
            CgroupId(0),
            CpuBounds { lower: 2, upper: 2 },
            EffectiveCpuConfig::default(),
            mk_mem(),
        );
        reg.unregister(CgroupId(0));
        assert!(reg.get(CgroupId(0)).is_none());
        assert_eq!(cell.effective_cpu(), 2); // still readable
    }

    #[test]
    #[should_panic]
    fn double_register_panics() {
        let reg = LiveRegistry::new();
        let _a = reg.register(
            CgroupId(0),
            CpuBounds { lower: 1, upper: 1 },
            EffectiveCpuConfig::default(),
            mk_mem(),
        );
        let _b = reg.register(
            CgroupId(0),
            CpuBounds { lower: 1, upper: 1 },
            EffectiveCpuConfig::default(),
            mk_mem(),
        );
    }

    #[test]
    fn set_static_republishes() {
        let reg = LiveRegistry::new();
        let cell = reg.register(
            CgroupId(0),
            CpuBounds {
                lower: 4,
                upper: 10,
            },
            EffectiveCpuConfig::default(),
            mk_mem(),
        );
        cell.set_static(
            CpuBounds { lower: 2, upper: 2 },
            Bytes::from_mib(100),
            Bytes::from_mib(200),
        );
        assert_eq!(cell.effective_cpu(), 2);
        assert_eq!(cell.effective_memory(), Bytes::from_mib(100));
    }

    #[test]
    fn degraded_snapshot_reverts_to_registration_bounds() {
        let reg = LiveRegistry::new();
        let cell = reg.register(
            CgroupId(0),
            CpuBounds {
                lower: 4,
                upper: 10,
            },
            EffectiveCpuConfig::default(),
            mk_mem(),
        );
        // Grow the view: the fallback snapshot still reverts to the
        // registration-time lower bound and soft limit, at the live
        // generation.
        for _ in 0..6 {
            cell.apply(saturated_sample());
        }
        let live = cell.snapshot();
        assert_eq!(live.cpus, 10);
        let deg = cell.degraded_snapshot();
        assert_eq!(deg.cpus, 4);
        assert_eq!(deg.bytes, Bytes::from_mib(500));
        assert!(deg.avail <= deg.bytes);
        assert_eq!(deg.generation, live.generation);
    }

    #[test]
    fn checkpoint_restore_round_trips_grown_views() {
        let reg = LiveRegistry::new();
        let cell = reg.register(
            CgroupId(0),
            CpuBounds {
                lower: 4,
                upper: 10,
            },
            EffectiveCpuConfig::default(),
            mk_mem(),
        );
        for _ in 0..6 {
            cell.apply(saturated_sample());
        }
        assert_eq!(cell.effective_cpu(), 10);
        let snap = reg.checkpoint(6);
        assert_eq!(snap.tick, 6);
        assert_eq!(snap.get(0).unwrap().e_cpu, 10);
        assert_eq!(snap.get(0).unwrap().last_tick, 6, "the caller's tick");

        // A cold registry would serve 4; restore resumes 10.
        let reg2 = LiveRegistry::new();
        let cell2 = reg2.register(
            CgroupId(0),
            CpuBounds {
                lower: 4,
                upper: 10,
            },
            EffectiveCpuConfig::default(),
            mk_mem(),
        );
        assert_eq!(cell2.effective_cpu(), 4);
        let out = reg2.restore(&snap);
        assert_eq!(out.restored, 1);
        assert_eq!(out.reconciled, 0);
        assert_eq!(cell2.effective_cpu(), 10);
    }

    #[test]
    fn restore_clamps_to_fresh_bounds_and_drops_vanished() {
        let reg = LiveRegistry::new();
        let cell = reg.register(
            CgroupId(0),
            // The quota narrowed to 6 CPUs while the daemon was down.
            CpuBounds { lower: 2, upper: 6 },
            EffectiveCpuConfig::default(),
            mk_mem(),
        );
        let snap = arv_persist::Snapshot {
            tick: 9,
            entries: vec![
                arv_persist::ViewState {
                    id: 0,
                    e_cpu: 10,
                    e_mem: Bytes::from_mib(700).as_u64(),
                    e_avail: Bytes::from_mib(300).as_u64(),
                    last_tick: 9,
                },
                arv_persist::ViewState {
                    id: 7,
                    e_cpu: 4,
                    e_mem: 1,
                    e_avail: 1,
                    last_tick: 9,
                },
            ],
        };
        let out = reg.restore(&snap);
        assert_eq!(out.restored, 1);
        assert_eq!(out.reconciled, 1, "journaled 10 CPUs clamped to 6");
        assert_eq!(out.dropped, 1, "vanished container ignored");
        assert_eq!(cell.effective_cpu(), 6);
        assert_eq!(cell.effective_memory(), Bytes::from_mib(700));
    }

    #[test]
    fn set_static_moves_the_fallback_view() {
        let reg = LiveRegistry::new();
        let cell = reg.register(
            CgroupId(0),
            CpuBounds {
                lower: 4,
                upper: 10,
            },
            EffectiveCpuConfig::default(),
            mk_mem(),
        );
        cell.set_static(
            CpuBounds { lower: 2, upper: 6 },
            Bytes::from_mib(100),
            Bytes::from_mib(200),
        );
        let deg = cell.degraded_snapshot();
        assert_eq!(deg.cpus, 2);
        assert_eq!(deg.bytes, Bytes::from_mib(100));
        // An explicit fallback override (the mirror path) wins.
        cell.set_fallback(3, Bytes::from_mib(150));
        let deg = cell.degraded_snapshot();
        assert_eq!((deg.cpus, deg.bytes), (3, Bytes::from_mib(150)));
    }

    struct ConstSampler;
    impl HostSampler for ConstSampler {
        fn sample(&self, _id: CgroupId) -> Option<LiveSample> {
            Some(LiveSample {
                cpu: CpuSample {
                    usage: T * 10,
                    period: T,
                    slack: T,
                },
                mem: MemSample {
                    free: Bytes::from_gib(64),
                    usage: Bytes::from_mib(495),
                    reclaiming: false,
                },
            })
        }
    }

    #[test]
    fn monitor_thread_converges_view_to_upper_bound() {
        let reg = LiveRegistry::new();
        let cell = reg.register(
            CgroupId(0),
            CpuBounds {
                lower: 4,
                upper: 10,
            },
            EffectiveCpuConfig::default(),
            mk_mem(),
        );
        let mon = LiveMonitor::spawn(
            reg.clone(),
            Arc::new(ConstSampler),
            Duration::from_millis(1),
        );
        // Concurrent queries while the monitor updates.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while cell.effective_cpu() < 10 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        mon.shutdown();
        assert_eq!(cell.effective_cpu(), 10);
        assert!(cell.update_count() >= 6);
    }

    #[test]
    fn cgroup_changes_reach_the_monitor_thread() {
        let reg = LiveRegistry::new();
        let cell = reg.register(
            CgroupId(0),
            CpuBounds {
                lower: 4,
                upper: 10,
            },
            EffectiveCpuConfig::default(),
            mk_mem(),
        );
        let mon = LiveMonitor::spawn(
            reg.clone(),
            Arc::new(ConstSampler),
            Duration::from_millis(1),
        );
        // A `docker update` narrows the quota to 2 CPUs.
        mon.change_sender()
            .send(CgroupChange {
                id: CgroupId(0),
                bounds: CpuBounds { lower: 2, upper: 2 },
                soft: Bytes::from_mib(100),
                hard: Bytes::from_mib(200),
            })
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while cell.effective_cpu() != 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        mon.shutdown();
        assert_eq!(cell.effective_cpu(), 2);
        assert!(cell.effective_memory() <= Bytes::from_mib(200));
    }

    #[test]
    fn monitor_drop_stops_thread() {
        let reg = LiveRegistry::new();
        let _cell = reg.register(
            CgroupId(0),
            CpuBounds { lower: 1, upper: 4 },
            EffectiveCpuConfig::default(),
            mk_mem(),
        );
        let mon = LiveMonitor::spawn(reg, Arc::new(ConstSampler), Duration::from_millis(1));
        drop(mon); // must not hang or panic
    }

    #[test]
    fn concurrent_readers_see_monotone_growth() {
        let reg = LiveRegistry::new();
        let cell = reg.register(
            CgroupId(0),
            CpuBounds {
                lower: 4,
                upper: 10,
            },
            EffectiveCpuConfig::default(),
            mk_mem(),
        );
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&cell);
                std::thread::spawn(move || {
                    let mut last = 0;
                    for _ in 0..10_000 {
                        let v = c.effective_cpu();
                        assert!(v >= last, "effective CPU went backwards under growth");
                        assert!((4..=10).contains(&v));
                        last = v;
                    }
                })
            })
            .collect();
        for _ in 0..8 {
            cell.apply(saturated_sample());
        }
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(cell.effective_cpu(), 10);
    }
}

//! Concurrent namespace cells: the views query threads read while an
//! updater writes them.
//!
//! [`crate::monitor::NsMonitor`] is the one updater and is
//! single-threaded by design; this module is the other half of the
//! runtime structure the paper evaluates in §5.4: views refreshed once
//! per scheduling period, concurrent with application queries, **with no
//! locking between updater and queries**. Each namespace is an atomic
//! cell — queries are plain atomic loads, writers serialize behind an
//! uncontended per-cell mutex. Drivers mirror the monitor's views in
//! ([`NsCell::force_publish`]). [`NsCell::apply`] runs Algorithms 1–2 a
//! second time, on the cell's own state: the system never calls it, and
//! only `arv-benchmark`'s `core.apply_ns` probe and this module's tests
//! do, as they do [`LiveRegistry`] and [`LiveSample`]. The update the
//! system runs is the monitor's firing plus the publish that mirrors it
//! (EXPERIMENTS.md §5.4).

use arv_cgroups::{Bytes, CgroupId};
use arv_telemetry::Tracer;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::effective_cpu::{CpuBounds, CpuSample, EffectiveCpu, EffectiveCpuConfig};
use crate::effective_mem::{EffectiveMemory, MemSample};
use crate::sysfs::{Sysconf, PAGE_SIZE};

/// The tick the cells' traced decisions carry: the registry has no
/// update-timer clock (a driver's lives beside it, in its server).
const UNTICKED: u64 = 0;

/// One update observation for [`NsCell::apply`].
#[derive(Debug, Clone, Copy)]
pub struct LiveSample {
    /// The scheduler observation.
    pub cpu: CpuSample,
    /// The memory observation.
    pub mem: MemSample,
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

impl ViewSnapshot {
    /// The conservative view served in place of this one once it is
    /// degraded: CPU at `cpus` (Algorithm 1's lower bound), memory at
    /// `soft` (Algorithm 2's safe reset) — the paper's own resets, legal
    /// under any interleaving — and available memory `soft` minus the
    /// last observed usage, floored at zero: never more than the
    /// container could really allocate under its soft limit. Usage is
    /// read as `bytes − avail`, which is exact unless `avail` was clamped
    /// to zero — and then usage ≥ `bytes` ≥ `soft` (Algorithm 2 keeps
    /// `bytes` in `[soft, hard]`), so the answer is zero either way. The
    /// generation stays this view's.
    pub fn fallback(&self, cpus: u32, soft: Bytes) -> ViewSnapshot {
        let usage = self.bytes.saturating_sub(self.avail);
        ViewSnapshot {
            cpus,
            bytes: soft,
            avail: soft.saturating_sub(usage),
            generation: self.generation,
        }
    }

    /// The answer to `sysconf(query)` from this view.
    pub fn sysconf(&self, query: Sysconf) -> u64 {
        match query {
            Sysconf::PageSize => PAGE_SIZE,
            Sysconf::NprocessorsOnln | Sysconf::NprocessorsConf => u64::from(self.cpus),
            Sysconf::PhysPages => self.bytes.as_u64() / PAGE_SIZE,
            // What the container has not yet consumed of its view.
            Sysconf::AvphysPages => self.avail.as_u64() / PAGE_SIZE,
        }
    }
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
    /// A cell for container `id` at Algorithm 1's lower bound and the
    /// soft limit — also its initial fallback view — whose
    /// [`apply`](NsCell::apply) decisions are traced into `tracer`.
    pub fn new(
        id: CgroupId,
        bounds: CpuBounds,
        cpu_cfg: EffectiveCpuConfig,
        mem: EffectiveMemory,
        tracer: Tracer,
    ) -> NsCell {
        let cpu = EffectiveCpu::new(bounds, cpu_cfg);
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

    /// Apply one update (the per-period refresh): Algorithms 1–2 on the
    /// cell's own state, then publish.
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

    /// Refresh the conservative fallback view (Algorithm 1's lower
    /// bound, the soft memory limit) served while the cell is degraded.
    pub fn set_fallback(&self, cpus: u32, mem: Bytes) {
        self.fb_cpu.store(cpus, Ordering::Release);
        self.fb_mem.store(mem.as_u64(), Ordering::Release);
    }

    /// The conservative fallback view, served in place of
    /// [`snapshot`](NsCell::snapshot) once the view is degraded: the
    /// published view's [`ViewSnapshot::fallback`] at the cell's fallback
    /// CPU count and soft limit.
    pub fn degraded_snapshot(&self) -> ViewSnapshot {
        self.snapshot().fallback(
            self.fb_cpu.load(Ordering::Acquire),
            Bytes(self.fb_mem.load(Ordering::Acquire)),
        )
    }
}

/// Registry of namespace cells, shared between an updater and
/// application query paths.
#[derive(Debug, Clone, Default)]
pub struct LiveRegistry {
    cells: Arc<RwLock<HashMap<CgroupId, Arc<NsCell>>>>,
}

impl LiveRegistry {
    /// An empty registry.
    pub fn new() -> LiveRegistry {
        LiveRegistry::default()
    }

    /// Register a container and get its query handle.
    pub fn register(
        &self,
        id: CgroupId,
        bounds: CpuBounds,
        cpu_cfg: EffectiveCpuConfig,
        mem: EffectiveMemory,
    ) -> Arc<NsCell> {
        let cell = Arc::new(NsCell::new(id, bounds, cpu_cfg, mem, Tracer::disabled()));
        let prev = self
            .cells
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id, Arc::clone(&cell));
        assert!(prev.is_none(), "container {id:?} already registered");
        cell
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
        // What the 490 MiB in use leaves of the soft limit, not of the
        // grown view.
        assert_eq!(deg.avail, Bytes::from_mib(10));
        assert_eq!(deg.generation, live.generation);
        // An explicit fallback override (the mirror path) wins.
        cell.set_fallback(3, Bytes::from_mib(450));
        let deg = cell.degraded_snapshot();
        assert_eq!((deg.cpus, deg.bytes), (3, Bytes::from_mib(450)));
        assert_eq!(deg.avail, Bytes(0), "usage past the soft limit");
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
        // A cgroup change narrows the static bounds: the driver mirrors
        // the new lower bound and soft limit into the fallback view, and
        // the published view is left to the next mirrored update.
        cell.set_fallback(2, Bytes::from_mib(100));
        let deg = cell.degraded_snapshot();
        assert_eq!(deg.cpus, 2);
        assert_eq!(deg.bytes, Bytes::from_mib(100));
        assert_eq!(cell.effective_cpu(), 4);
        assert_eq!(cell.effective_memory(), Bytes::from_mib(500));
        // A later change moves it again.
        cell.set_fallback(3, Bytes::from_mib(150));
        let deg = cell.degraded_snapshot();
        assert_eq!((deg.cpus, deg.bytes), (3, Bytes::from_mib(150)));
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

//! The view server and its in-process client handle.
//!
//! `arv-viewd` owns a [`ShardedRegistry`] of live namespace cells and
//! answers two kinds of queries for any registered container:
//!
//! * **file reads** — full images of the virtual files resource probing
//!   opens (`/proc/cpuinfo`, `/proc/meminfo`, `/proc/stat`,
//!   `/sys/devices/system/cpu/online`, and the container's own cgroup
//!   interface files `cpu.max` / `memory.max`), built from one untorn
//!   [`ViewSnapshot`] and cached per `(container, path)` behind the
//!   cell's generation stamp. The four CPU-keyed files are formatted
//!   once per CPU count for the whole daemon (the image table); only
//!   the two memory-keyed ones are formatted per miss;
//! * **sysconf** — the scalar parameters glibc derives from those files.
//!
//! A read resolves its path with [`PathId::resolve`] and renders with
//! [`render::image`]; a degraded fallback is traced with
//! [`trace_moved`]. Around that sit the shards, the caches, the image
//! table and one freshness word per host. Host processes (no container
//! identity) and unknown containers are answered from the [`HostSpec`],
//! with the free memory the driver last sampled
//! ([`ViewServer::set_host_free`]). A simulated host owns one server and
//! answers every in-process query through its [`ViewClient`], so a
//! containerized runtime reads exactly what a wire client reads.

use arv_cgroups::{Bytes, CgroupId};
use arv_resview::{
    render, trace_moved, CpuBounds, EffectiveCpuConfig, EffectiveMemory, HostSpec, NsCell, PathId,
    Sysconf, ViewHealth, ViewSnapshot, PAGE_SIZE,
};
use arv_telemetry::{DecisionCause, PromText, Tracer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

use crate::metrics::{Metrics, MetricsSnapshot, Served};
use crate::shard::{ContainerEntry, ShardedRegistry};

/// A successful file read: the image plus the generation it reflects.
#[derive(Debug, Clone)]
pub struct ViewImage {
    /// The rendered file contents.
    pub image: Arc<String>,
    /// Generation of the snapshot the image was rendered from (0 for
    /// host images, which never change).
    pub generation: u64,
    /// Health of the view the image was rendered from. `Degraded` means
    /// the image shows the conservative fallback view, not the live one.
    /// Host images are always `Fresh`.
    pub health: ViewHealth,
}

struct ServerInner {
    shards: ShardedRegistry,
    host: HostSpec,
    // The host's free memory as last sampled (the spec's `free_memory`
    // until the first sample) and the host's `/proc/meminfo` image of it.
    host_mem: RwLock<(Bytes, Arc<String>)>,
    // `images[path][cpus]`: the four CPU-keyed files are functions of a
    // CPU count alone, so each is formatted at most once per count up to
    // the host's and every container (and the host, at `online_cpus`)
    // shares the bytes. Slots fill on first use, at most
    // O(online_cpus^2) image bytes; the memory-keyed rows are empty.
    images: [Box<[OnceLock<Arc<String>>]>; PathId::COUNT],
    metrics: Metrics,
    // Whether the host's journal durability is lost: a 0/1 gauge the
    // monitor daemon mirrors in, not a count.
    durability_lost: AtomicBool,
    // Update-timer tick, advanced by the driver on every firing.
    clock: AtomicU64,
    // Tick the views the driver last brought every cell level with were
    // current at: every served view is `clock - fresh` old (one word per
    // host). Stored with Release after the mirrors it vouches for, loaded
    // with Acquire.
    fresh: AtomicU64,
    // Tick of the last warm restart, or `u64::MAX` when no recovery is
    // in flight. The first Fresh-health serve after a restart records
    // the recovery latency and resets this to `u64::MAX`.
    restore_tick: AtomicU64,
    // Decision-provenance trace shared with every registered cell (a
    // disabled tracer unless built via `with_telemetry`).
    tracer: Tracer,
}

/// The daemon state: registry, caches, host fallback, metrics.
///
/// Cloning is cheap (one `Arc`); [`ViewServer::client`] hands out
/// [`ViewClient`] query handles backed by the same state.
#[derive(Clone)]
pub struct ViewServer {
    inner: Arc<ServerInner>,
}

impl ViewServer {
    /// A server for `host` with `shards` registry shards. Views older
    /// than [`arv_resview::STALENESS_BUDGET`] are served degraded. The
    /// staleness clock starts at 0 and only moves when the driver calls
    /// [`advance_tick`](ViewServer::advance_tick), so a server that never
    /// advances it serves every view fresh.
    pub fn new(host: HostSpec, shards: usize) -> ViewServer {
        ViewServer::with_telemetry(host, shards, Tracer::disabled())
    }

    /// A server with a shared decision-provenance [`Tracer`]. Every cell
    /// registered through this server emits into the same trace ring the
    /// monitor side uses, so a container's timeline interleaves monitor
    /// decisions with the serving layer's degraded-fallback switches.
    pub fn with_telemetry(host: HostSpec, shards: usize, tracer: Tracer) -> ViewServer {
        let images = PathId::ALL.map(|id| {
            let counts = if id.cpu_keyed() {
                host.online_cpus as usize + 1
            } else {
                0
            };
            (0..counts).map(|_| OnceLock::new()).collect()
        });
        ViewServer {
            inner: Arc::new(ServerInner {
                shards: ShardedRegistry::new(shards),
                host,
                host_mem: RwLock::new((
                    host.free_memory,
                    Arc::new(render::meminfo(host.total_memory, host.free_memory)),
                )),
                images,
                metrics: Metrics::default(),
                durability_lost: AtomicBool::new(false),
                clock: AtomicU64::new(0),
                fresh: AtomicU64::new(0),
                restore_tick: AtomicU64::new(u64::MAX),
                tracer,
            }),
        }
    }

    /// The decision-provenance tracer this server emits into (disabled
    /// unless the server was built via
    /// [`with_telemetry`](ViewServer::with_telemetry)).
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// Advance the staleness clock by one update-timer firing. Called by
    /// the driver on every firing, whether or not views were refreshed —
    /// that difference is exactly what staleness measures.
    pub fn advance_tick(&self) -> u64 {
        self.inner.clock.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Current staleness-clock tick.
    pub fn now_tick(&self) -> u64 {
        self.inner.clock.load(Ordering::Acquire)
    }

    /// Record that every cell now holds its monitor's view, and that
    /// those views are `age` ticks old: the monitor's own `now − fresh`,
    /// 0 right after a healthy firing. The age is counted on this
    /// server's clock, which must advance with the monitor's; an age past
    /// the clock's reading dates the views to tick 0. Called once per
    /// publish, after its mirrors — never once per container.
    pub fn mark_fresh(&self, age: u64) {
        let fresh = self.now_tick().saturating_sub(age);
        self.inner.fresh.store(fresh, Ordering::Release);
    }

    /// Register a container; the returned cell is the one the daemon
    /// serves from (an updater may apply samples through it, or mirror
    /// views in with [`mirror`](ViewServer::mirror)). Panics if `id` is
    /// already registered.
    pub fn register(
        &self,
        id: CgroupId,
        bounds: CpuBounds,
        cpu_cfg: EffectiveCpuConfig,
        mem: EffectiveMemory,
    ) -> Arc<NsCell> {
        let tracer = self.inner.tracer.clone();
        let cell = Arc::new(NsCell::new(id, bounds, cpu_cfg, mem, tracer));
        self.inner.shards.insert(id, Arc::clone(&cell));
        cell
    }

    /// Remove a container (its cell stays valid for outstanding holders).
    pub fn unregister(&self, id: CgroupId) {
        self.inner.shards.remove(id);
    }

    /// A registered container's cell.
    pub fn cell(&self, id: CgroupId) -> Option<Arc<NsCell>> {
        self.inner
            .shards
            .get(id)
            .map(|entry| Arc::clone(&entry.cell))
    }

    /// Every registered container, unordered.
    pub fn ids(&self) -> Vec<CgroupId> {
        self.inner.shards.ids()
    }

    /// Number of registered containers.
    pub fn len(&self) -> usize {
        self.inner.shards.len()
    }

    /// Whether no container is registered.
    pub fn is_empty(&self) -> bool {
        self.inner.shards.is_empty()
    }

    /// An in-process query handle.
    pub fn client(&self) -> ViewClient {
        ViewClient {
            inner: Arc::clone(&self.inner),
        }
    }

    /// The live metrics (counters update concurrently).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Direct access for instrumenting callers (wire server, benches).
    pub(crate) fn metrics_ref(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Prometheus text-format exposition of the daemon's counters,
    /// latency summaries, trace-ring health, and one gauge set per
    /// registered container (effective CPUs/memory, available memory,
    /// publish generation).
    pub fn prometheus_exposition(&self) -> String {
        let mut out = PromText::new();
        self.metrics().expose(&mut out);
        out.gauge(
            "arv_viewd_durability_lost",
            "Whether the host's journal durability is lost (1) or intact (0)",
            f64::from(u8::from(self.inner.durability_lost.load(Ordering::Relaxed))),
        );
        let tracer = self.tracer();
        out.counter(
            "arv_trace_events",
            "Decision-provenance events emitted",
            tracer.emitted() as f64,
        );
        out.counter(
            "arv_trace_dropped",
            "Trace events overwritten before being read",
            tracer.dropped_events() as f64,
        );
        out.header(
            "arv_container_effective_cpus",
            "Per-container effective CPU count",
            "gauge",
        );
        out.header(
            "arv_container_effective_bytes",
            "Per-container effective memory size",
            "gauge",
        );
        out.header(
            "arv_container_available_bytes",
            "Per-container available memory in the view",
            "gauge",
        );
        out.header(
            "arv_container_generation",
            "Per-container view publish generation",
            "gauge",
        );
        let mut ids = self.inner.shards.ids();
        ids.sort_unstable_by_key(|id| id.0);
        for id in ids {
            let Some(entry) = self.inner.shards.get(id) else {
                continue; // unregistered between listing and lookup
            };
            let snap = entry.cell.snapshot();
            let labels = [("container", id.0.to_string())];
            out.labeled(
                "arv_container_effective_cpus",
                &labels,
                f64::from(snap.cpus),
            );
            out.labeled(
                "arv_container_effective_bytes",
                &labels,
                snap.bytes.as_u64() as f64,
            );
            out.labeled(
                "arv_container_available_bytes",
                &labels,
                snap.avail.as_u64() as f64,
            );
            out.labeled("arv_container_generation", &labels, snap.generation as f64);
        }
        out.finish()
    }

    /// Record a warm restart: `reconciled` containers had their restored
    /// views clamped against the fresh cgroup hierarchy, and `truncated`
    /// journal records were discarded as torn or corrupt. Starts the
    /// recovery-latency clock — the first Fresh-health serve after this
    /// call records how many ticks recovery took.
    pub fn note_restore(&self, reconciled: u64, truncated: u64) {
        let m = &self.inner.metrics;
        m.restore_reconciled_containers
            .fetch_add(reconciled, Ordering::Relaxed);
        m.journal_truncated_records
            .fetch_add(truncated, Ordering::Relaxed);
        self.inner
            .restore_tick
            .store(self.now_tick(), Ordering::Release);
    }

    /// Sample the host's free memory: what host callers and unknown
    /// containers read from `_SC_AVPHYS_PAGES` and `/proc/meminfo` until
    /// the next sample. The driver samples on every update-timer firing.
    pub fn set_host_free(&self, free: Bytes) {
        let inner = &self.inner;
        let mut host = inner.host_mem.write().unwrap_or_else(|e| e.into_inner());
        if host.0 != free {
            *host = (
                free,
                Arc::new(render::meminfo(inner.host.total_memory, free)),
            );
        }
    }

    /// Mirror the host's durability ladder into the daemon's metrics:
    /// whether journal durability is currently `lost`, and the absolute
    /// store-error count. Called by the monitor daemon on every rung
    /// transition.
    pub fn note_durability(&self, lost: bool, io_errors: u64) {
        self.inner.durability_lost.store(lost, Ordering::Relaxed);
        self.inner
            .metrics
            .journal_io_errors
            .store(io_errors, Ordering::Relaxed);
    }

    /// Mirror externally computed views into a container's cell (the
    /// simulation driver path; see [`arv_resview::NsCell::force_publish`]).
    /// Only publishes: freshness is [`mark_fresh`](ViewServer::mark_fresh).
    pub fn mirror(&self, id: CgroupId, cpus: u32, mem: Bytes, avail: Bytes) -> bool {
        match self.inner.shards.get(id) {
            Some(entry) => {
                entry.cell.force_publish(cpus, mem, avail);
                true
            }
            None => false,
        }
    }
}

impl std::fmt::Debug for ViewServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewServer")
            .field("containers", &self.len())
            .field("shards", &self.inner.shards.shard_count())
            .finish()
    }
}

/// In-process query handle over a [`ViewServer`]'s state.
#[derive(Clone)]
pub struct ViewClient {
    inner: Arc<ServerInner>,
}

impl ViewClient {
    /// Read a virtual file as seen by `caller`. `None` caller — or a
    /// container the server doesn't know — gets the host image. Returns
    /// `None` for unsupported paths (ENOENT).
    pub fn read(&self, caller: Option<CgroupId>, path: &str) -> Option<ViewImage> {
        let start = Instant::now();
        let (view, how) = self.serve_read(caller, path)?;
        self.inner.metrics.served(how, start.elapsed());
        Some(view)
    }

    /// [`read`](ViewClient::read) without the clock: the caller times
    /// the query and accounts it with [`Metrics::served`], so a wire
    /// request reads the clock once for itself and the query both.
    pub(crate) fn serve_read(
        &self,
        caller: Option<CgroupId>,
        path: &str,
    ) -> Option<(ViewImage, Served)> {
        let m = &self.inner.metrics;
        m.queries.fetch_add(1, Ordering::Relaxed);
        let result = PathId::resolve(path, caller).and_then(|(id, caller)| {
            match caller.and_then(|c| self.inner.shards.get(c)) {
                Some(entry) => Some(self.read_container(&entry, id)),
                None => self.read_host(id).map(|view| (view, Served::Hit)),
            }
        });
        if result.is_none() {
            m.failures.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Read a virtual file only if it can be answered without rendering:
    /// host images (immutable, always cached) and container images whose
    /// cached render matches the cell's current generation. Returns
    /// `None` when answering would require a render (cache miss,
    /// mid-publish generation, degraded fallback) or the path is
    /// unknown — the load-shedding tier-2 signal: under pressure the
    /// wire layer serves what this returns and sheds the rest.
    pub fn read_cached(&self, caller: Option<CgroupId>, path: &str) -> Option<ViewImage> {
        let start = Instant::now();
        let (id, caller) = PathId::resolve(path, caller)?;
        let view = match caller.and_then(|c| self.inner.shards.get(c)) {
            Some(entry) => self.cached(&entry, id)?,
            None => self.read_host(id)?,
        };
        let m = &self.inner.metrics;
        m.queries.fetch_add(1, Ordering::Relaxed);
        m.served(Served::Hit, start.elapsed());
        Some(view)
    }

    /// The container's cached image of `path`, if it is current and the
    /// view is not degraded (fallback images are built per read).
    fn cached(&self, entry: &ContainerEntry, id: PathId) -> Option<ViewImage> {
        let (_, health) = self.inner.health();
        if health.is_degraded() {
            return None;
        }
        let (image, generation) = Self::current(entry, id)?;
        let m = &self.inner.metrics;
        m.staleness_age.record(health.age());
        if matches!(health, ViewHealth::Stale { .. }) {
            m.stale_serves.fetch_add(1, Ordering::Relaxed);
        }
        Some(ViewImage {
            image,
            generation,
            health,
        })
    }

    /// The image the container's cache holds at the cell's current
    /// generation, with that generation: one generation load, and the
    /// image is consistent by construction — it was built from a
    /// snapshot taken at the same stamp. `None` if the cache is cold or
    /// stale, or a publish is in flight (odd stamp).
    fn current(entry: &ContainerEntry, id: PathId) -> Option<(Arc<String>, u64)> {
        let generation = entry.cell.generation();
        if generation & 1 != 0 {
            return None;
        }
        Some((entry.cache.get(id, generation)?, generation))
    }

    /// Health of the view `caller` would currently be served (host and
    /// unknown-container callers read physical values, always fresh).
    pub fn health(&self, caller: Option<CgroupId>) -> ViewHealth {
        match caller.and_then(|id| self.inner.shards.get(id)) {
            Some(_) => self.inner.health().1,
            None => ViewHealth::Fresh,
        }
    }

    /// Judge one container entry and record the staleness metrics that
    /// go with serving it.
    fn judge(&self, entry: &ContainerEntry) -> ViewHealth {
        let m = &self.inner.metrics;
        let (now, health) = self.inner.health();
        m.staleness_age.record(health.age());
        match health {
            ViewHealth::Fresh => {
                // First Fresh serve after a warm restart closes the
                // recovery-latency clock (compare-exchange so exactly
                // one racing query records it).
                let restored = self.inner.restore_tick.load(Ordering::Acquire);
                if restored != u64::MAX
                    && self
                        .inner
                        .restore_tick
                        .compare_exchange(restored, u64::MAX, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                {
                    m.recovery_latency.record(now.saturating_sub(restored));
                }
            }
            ViewHealth::Stale { .. } => {
                m.stale_serves.fetch_add(1, Ordering::Relaxed);
            }
            ViewHealth::Degraded { .. } => {
                m.degraded_serves.fetch_add(1, Ordering::Relaxed);
                self.trace_degraded(entry, now);
            }
        }
        health
    }

    /// Trace the switch to the conservative fallback view, once per
    /// container per staleness tick (the hot query path may judge the
    /// same degraded entry thousands of times within one tick).
    fn trace_degraded(&self, entry: &ContainerEntry, now: u64) {
        if !self.inner.tracer.is_enabled() {
            return;
        }
        if entry.degraded_tick.swap(now, Ordering::AcqRel) == now {
            return; // already traced this tick
        }
        let live = entry.cell.snapshot();
        let fallback = entry.cell.degraded_snapshot();
        trace_moved(
            &self.inner.tracer,
            now,
            entry.cell.id(),
            DecisionCause::DegradedFallback,
            (live.cpus, fallback.cpus),
            (live.bytes, fallback.bytes),
        );
    }

    /// The host's image of `id`: always a hit, the CPU-keyed files
    /// being the image table's `online_cpus` entries. A host caller has
    /// no cgroup interface files.
    fn read_host(&self, id: PathId) -> Option<ViewImage> {
        let inner = &self.inner;
        let image = match id {
            PathId::Meminfo => Arc::clone(&inner.host_mem().1),
            _ if !id.on_host() => return None,
            _ => inner.image(id, &inner.host.view()),
        };
        Some(ViewImage {
            image,
            generation: 0,
            health: ViewHealth::Fresh,
        })
    }

    fn read_container(&self, entry: &ContainerEntry, id: PathId) -> (ViewImage, Served) {
        let health = self.judge(entry);
        let live = !health.is_degraded();
        let (image, generation, how) = match live.then(|| Self::current(entry, id)).flatten() {
            Some((image, generation)) => (image, generation, Served::Hit),
            // Miss, mid-publish or degraded: take one untorn snapshot
            // and build the image from it alone, so it can never mix two
            // generations. A fallback image is never put in the cache —
            // that is keyed by generation, and the same generation must
            // go back to serving the live image the moment the cell is
            // refreshed.
            None => {
                let snap = Self::view_of(entry, health);
                let image = self.inner.image(id, &snap);
                if live {
                    entry.cache.put(id, snap.generation, Arc::clone(&image));
                }
                (image, snap.generation, Served::Miss)
            }
        };
        let view = ViewImage {
            image,
            generation,
            health,
        };
        (view, how)
    }

    /// The view a container of `health` is answered from: the live
    /// snapshot, or the conservative fallback once degraded.
    fn view_of(entry: &ContainerEntry, health: ViewHealth) -> ViewSnapshot {
        if health.is_degraded() {
            entry.cell.degraded_snapshot()
        } else {
            entry.cell.snapshot()
        }
    }

    /// Answer a `sysconf` query for `caller`: the container's view, or
    /// its conservative fallback once degraded; host values for `None`
    /// and for a container the server does not know — exactly the
    /// pre-paper failure mode.
    pub fn sysconf(&self, caller: Option<CgroupId>, query: Sysconf) -> u64 {
        let start = Instant::now();
        let (value, _, _) = self.serve_sysconf(caller, query);
        // Sysconf needs no render; it always counts as the cheap path.
        self.inner.metrics.served(Served::Hit, start.elapsed());
        value
    }

    /// Total memory as seen by `caller` (`_SC_PHYS_PAGES * _SC_PAGESIZE`).
    pub fn memory_bytes(&self, caller: Option<CgroupId>) -> Bytes {
        Bytes(self.sysconf(caller, Sysconf::PhysPages) * PAGE_SIZE)
    }

    /// Online CPU count as seen by `caller`.
    pub fn online_cpus(&self, caller: Option<CgroupId>) -> u32 {
        self.sysconf(caller, Sysconf::NprocessorsOnln) as u32
    }

    /// [`sysconf`](ViewClient::sysconf) without the clock (see
    /// [`serve_read`](ViewClient::serve_read)), with the generation and
    /// health of the one snapshot the value was read from — a reply
    /// built from these three cannot pair a value with a later stamp.
    pub(crate) fn serve_sysconf(
        &self,
        caller: Option<CgroupId>,
        query: Sysconf,
    ) -> (u64, u64, ViewHealth) {
        self.inner.metrics.queries.fetch_add(1, Ordering::Relaxed);
        let (snap, health) = match caller.and_then(|id| self.inner.shards.get(id)) {
            Some(entry) => {
                let health = self.judge(&entry);
                (Self::view_of(&entry, health), health)
            }
            None => {
                let view = ViewSnapshot {
                    avail: self.inner.host_mem().0,
                    ..self.inner.host.view()
                };
                (view, ViewHealth::Fresh)
            }
        };
        (snap.sysconf(query), snap.generation, health)
    }

    /// The generation currently published for a container (`None` if the
    /// container is unknown).
    pub fn generation(&self, id: CgroupId) -> Option<u64> {
        self.inner.shards.get(id).map(|e| e.cell.generation())
    }
}

impl std::fmt::Debug for ViewClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewClient").finish_non_exhaustive()
    }
}

impl ServerInner {
    /// The current tick and the health of every container view at it:
    /// the age of the host's freshness word.
    fn health(&self) -> (u64, ViewHealth) {
        let now = self.clock.load(Ordering::Acquire);
        let fresh = self.fresh.load(Ordering::Acquire);
        (now, ViewHealth::from_age(now.saturating_sub(fresh)))
    }

    /// The host's free memory as last sampled, and its meminfo image.
    fn host_mem(&self) -> std::sync::RwLockReadGuard<'_, (Bytes, Arc<String>)> {
        self.host_mem.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The image of `id` for the view `snap`: the shared image-table
    /// entry when the file is CPU-keyed and the count within the host's,
    /// formatted on the spot otherwise (memory-keyed files, and a count
    /// past `online_cpus`, which no algorithm produces but a mirror may).
    fn image(&self, id: PathId, snap: &ViewSnapshot) -> Arc<String> {
        match self.images[id as usize].get(snap.cpus as usize) {
            Some(slot) => Arc::clone(slot.get_or_init(|| self.render(id, snap))),
            None => self.render(id, snap),
        }
    }

    /// Format a container-visible file image entirely from one snapshot.
    fn render(&self, id: PathId, snap: &ViewSnapshot) -> Arc<String> {
        self.metrics.renders.fetch_add(1, Ordering::Relaxed);
        Arc::new(render::image(id, snap, self.host.cfs_period_us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arv_resview::{EffectiveMemoryConfig, STALENESS_BUDGET};

    fn mk_mem(soft_mib: u64, hard_mib: u64) -> EffectiveMemory {
        EffectiveMemory::new(
            Bytes::from_mib(soft_mib),
            Bytes::from_mib(hard_mib),
            Bytes::from_mib(64),
            Bytes::from_mib(128),
            EffectiveMemoryConfig::default(),
        )
    }

    fn server_with_one() -> (ViewServer, CgroupId) {
        let server = ViewServer::new(HostSpec::paper_testbed(), 8);
        let id = CgroupId(1);
        server.register(
            id,
            CpuBounds {
                lower: 4,
                upper: 10,
            },
            EffectiveCpuConfig::default(),
            mk_mem(500, 1024),
        );
        (server, id)
    }

    #[test]
    fn container_reads_render_the_view() {
        let (server, id) = server_with_one();
        let client = server.client();
        let cpuinfo = client.read(Some(id), "/proc/cpuinfo").unwrap();
        assert_eq!(cpuinfo.image.matches("processor").count(), 4);
        let online = client
            .read(Some(id), "/sys/devices/system/cpu/online")
            .unwrap();
        assert_eq!(online.image.as_str(), "0-3");
        let meminfo = client.read(Some(id), "/proc/meminfo").unwrap();
        assert!(meminfo
            .image
            .contains(&format!("MemTotal: {} kB", 500 * 1024)));
        assert_eq!(
            client.read(Some(id), "cpu.max").unwrap().image.as_str(),
            "400000 100000\n"
        );
        // Both cgroup interface files reflect the *effective* view (4
        // CPUs, 500 MiB soft limit at start), not the static hard caps.
        assert_eq!(
            client.read(Some(id), "memory.max").unwrap().image.as_str(),
            format!("{}\n", Bytes::from_mib(500).as_u64())
        );
    }

    #[test]
    fn host_and_unknown_container_get_host_images() {
        let (server, _) = server_with_one();
        let client = server.client();
        let host_cpuinfo = client.read(None, "/proc/cpuinfo").unwrap();
        assert_eq!(host_cpuinfo.image.matches("processor").count(), 20);
        assert_eq!(host_cpuinfo.generation, 0);
        let unknown = client.read(Some(CgroupId(99)), "/proc/cpuinfo").unwrap();
        assert_eq!(unknown.image.matches("processor").count(), 20);
    }

    #[test]
    fn unknown_path_is_none_and_counts_as_failure() {
        let (server, id) = server_with_one();
        let client = server.client();
        assert!(client.read(Some(id), "/sys/kernel/unrelated").is_none());
        assert_eq!(server.metrics().failures, 1);
    }

    #[test]
    fn second_read_hits_the_cache() {
        let (server, id) = server_with_one();
        let client = server.client();
        let first = client.read(Some(id), "/proc/cpuinfo").unwrap();
        let second = client.read(Some(id), "/proc/cpuinfo").unwrap();
        assert!(Arc::ptr_eq(&first.image, &second.image));
        let m = server.metrics();
        assert_eq!(m.cache_misses, 1);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.queries, 2);
    }

    #[test]
    fn update_invalidates_via_generation() {
        let (server, id) = server_with_one();
        let client = server.client();
        let before = client
            .read(Some(id), "/sys/devices/system/cpu/online")
            .unwrap();
        assert_eq!(before.image.as_str(), "0-3");
        server.mirror(id, 8, Bytes::from_mib(800), Bytes::from_mib(800));
        let after = client
            .read(Some(id), "/sys/devices/system/cpu/online")
            .unwrap();
        assert_eq!(after.image.as_str(), "0-7");
        assert!(after.generation > before.generation);
        let m = server.metrics();
        assert_eq!(m.cache_misses, 2); // one per generation
    }

    #[test]
    fn sysconf_matches_file_images() {
        let (server, id) = server_with_one();
        let client = server.client();
        assert_eq!(client.sysconf(Some(id), Sysconf::NprocessorsOnln), 4);
        assert_eq!(
            client.sysconf(Some(id), Sysconf::PhysPages) * PAGE_SIZE,
            Bytes::from_mib(500).as_u64()
        );
        assert_eq!(
            client.sysconf(Some(id), Sysconf::AvphysPages) * PAGE_SIZE,
            Bytes::from_mib(500).as_u64() // no usage observed yet
        );
        assert_eq!(client.sysconf(None, Sysconf::NprocessorsOnln), 20);
        assert_eq!(client.sysconf(Some(id), Sysconf::PageSize), PAGE_SIZE);
        assert_eq!(client.online_cpus(Some(id)), 4);
        assert_eq!(client.memory_bytes(Some(id)), Bytes::from_mib(500));
    }

    /// A host caller, and a container the server does not know, read the
    /// physical totals, the free memory last sampled and the host's
    /// images; a host caller has no cgroup interface files.
    #[test]
    fn host_callers_read_physical_values_and_no_cgroup_files() {
        let (server, _) = server_with_one();
        let client = server.client();
        for caller in [None, Some(CgroupId(99))] {
            assert_eq!(client.online_cpus(caller), 20);
            assert_eq!(client.memory_bytes(caller), Bytes::from_gib(128));
            assert_eq!(
                client.sysconf(caller, Sysconf::AvphysPages) * PAGE_SIZE,
                Bytes::from_gib(100).as_u64()
            );
            assert_eq!(client.sysconf(caller, Sysconf::PageSize), PAGE_SIZE);
            let read = |path| client.read(caller, path).expect("a host file").image;
            assert_eq!(*read("/sys/devices/system/cpu/online"), "0-19");
            let meminfo = read("/proc/meminfo");
            assert!(meminfo.contains(&format!("MemTotal: {} kB", 128u64 << 20)));
        }
        assert!(client.read(None, "cpu.max").is_none());
        assert!(client.read(None, "memory.max").is_none());
        server.set_host_free(Bytes::from_gib(7));
        assert_eq!(
            client.sysconf(None, Sysconf::AvphysPages) * PAGE_SIZE,
            Bytes::from_gib(7).as_u64()
        );
    }

    /// Every view-dependent file renders differently inside the container
    /// (4 effective CPUs, 500 MiB) than on the host, and a container the
    /// server does not know reads the host's image; the hardware-property
    /// files are the same inside and out.
    #[test]
    fn virtualized_paths_differ_between_host_and_container() {
        let (server, id) = server_with_one();
        let client = server.client();
        let read = |caller, path| client.read(caller, path).map(|view| view.image);
        for path in [
            "/sys/devices/system/cpu/online",
            "/proc/cpuinfo",
            "/proc/stat",
            "/proc/meminfo",
        ] {
            let outside = read(None, path).expect("a host file");
            assert_ne!(read(Some(id), path), Some(Arc::clone(&outside)), "{path}");
            assert_eq!(read(Some(CgroupId(99)), path), Some(outside), "{path}");
        }
        for path in [
            "/sys/devices/system/cpu/possible",
            "/sys/devices/system/cpu/present",
        ] {
            assert_eq!(read(Some(id), path), read(None, path), "{path}");
        }
    }

    /// What a container reads from `_SC_AVPHYS_PAGES` is its namespace's
    /// view less the last observed usage — the whole view before any
    /// usage is seen — clamped at zero once usage overshoots a view that
    /// reclaim just shrank.
    #[test]
    fn avphys_pages_is_the_view_less_usage_clamped_at_zero() {
        use arv_resview::effective_cpu::CpuSample;
        use arv_resview::effective_mem::MemSample;
        use arv_resview::namespace::{Pid, SysNamespace};
        use arv_sim_core::SimDuration;
        let (server, id) = server_with_one();
        let client = server.client();
        let bounds = CpuBounds {
            lower: 4,
            upper: 10,
        };
        let mut ns = SysNamespace::new(id, Pid(1), bounds, Default::default(), mk_mem(500, 1024));
        let served = |ns: &SysNamespace| {
            let (cpus, mem, avail) = ns.views();
            server.mirror(id, cpus, mem, avail);
            client.sysconf(Some(id), Sysconf::AvphysPages) * PAGE_SIZE
        };
        assert_eq!(served(&ns), Bytes::from_mib(500).as_u64());
        let period = SimDuration::from_millis(24);
        let update = |ns: &mut SysNamespace, free, usage, reclaiming| {
            let cpu = CpuSample {
                usage: SimDuration::ZERO,
                period,
                slack: SimDuration::ZERO,
            };
            let mem = MemSample {
                free,
                usage,
                reclaiming,
            };
            ns.update(cpu, mem);
        };
        update(&mut ns, Bytes::from_gib(100), Bytes::from_mib(200), false);
        let view = ns.effective_memory();
        assert_eq!(served(&ns), (view - Bytes::from_mib(200)).as_u64());
        // Free memory below the low watermark resets the view to the
        // soft limit, under 2 GiB of usage.
        update(&mut ns, Bytes::from_mib(10), Bytes::from_gib(2), true);
        assert_eq!(ns.effective_memory(), Bytes::from_mib(500));
        assert_eq!(served(&ns), 0);
    }

    #[test]
    fn unregister_falls_back_to_host() {
        let (server, id) = server_with_one();
        let client = server.client();
        assert_eq!(server.len(), 1);
        server.unregister(id);
        assert!(server.is_empty());
        assert_eq!(
            client
                .read(Some(id), "/proc/cpuinfo")
                .unwrap()
                .image
                .matches("processor")
                .count(),
            20
        );
        assert!(client.generation(id).is_none());
    }

    #[test]
    fn hardware_property_files_stay_physical() {
        let (server, id) = server_with_one();
        let client = server.client();
        let possible = client
            .read(Some(id), "/sys/devices/system/cpu/possible")
            .unwrap();
        assert_eq!(possible.image.as_str(), "0-19");
    }

    #[test]
    fn stale_clock_degrades_to_fallback_and_recovers() {
        use arv_resview::ViewHealth;
        let (server, id) = server_with_one();
        let client = server.client();
        // Publish a grown view at tick 0.
        server.mirror(id, 8, Bytes::from_mib(800), Bytes::from_mib(700));
        assert!(client.health(Some(id)).is_fresh());
        assert_eq!(client.sysconf(Some(id), Sysconf::NprocessorsOnln), 8);

        // The timer keeps firing but nothing republishes: within budget
        // (default 4) the live view is still served, flagged stale.
        for _ in 0..3 {
            server.advance_tick();
        }
        assert_eq!(client.health(Some(id)), ViewHealth::Stale { age: 3 });
        assert_eq!(client.sysconf(Some(id), Sysconf::NprocessorsOnln), 8);

        // Past the budget the conservative fallback takes over: the
        // registration-time lower bound and soft limit.
        for _ in 0..2 {
            server.advance_tick();
        }
        let img = client.read(Some(id), "/proc/cpuinfo").unwrap();
        assert!(img.health.is_degraded());
        assert_eq!(img.image.matches("processor").count(), 4);
        assert_eq!(client.sysconf(Some(id), Sysconf::NprocessorsOnln), 4);
        assert_eq!(
            client.sysconf(Some(id), Sysconf::PhysPages) * PAGE_SIZE,
            Bytes::from_mib(500).as_u64()
        );
        // One degraded serve per answer past the budget: the read and
        // the two sysconfs.
        let m = server.metrics();
        assert_eq!(m.degraded_serves, 3);
        assert!(m.stale_serves >= 1);

        // A publish alone does not refresh the host; the firing that
        // brought it level does, and the live view is back immediately —
        // the cache never served the degraded image for a live generation.
        server.mirror(id, 8, Bytes::from_mib(800), Bytes::from_mib(700));
        assert!(client.health(Some(id)).is_degraded());
        server.mark_fresh(0);
        assert!(client.health(Some(id)).is_fresh());
        let img = client.read(Some(id), "/proc/cpuinfo").unwrap();
        assert!(img.health.is_fresh());
        assert_eq!(img.image.matches("processor").count(), 8);
    }

    #[test]
    fn explicit_fallback_override_is_served_when_degraded() {
        let (server, id) = server_with_one();
        let client = server.client();
        server
            .cell(id)
            .expect("registered")
            .set_fallback(2, Bytes::from_mib(250));
        for _ in 0..=STALENESS_BUDGET {
            server.advance_tick();
        }
        assert_eq!(client.sysconf(Some(id), Sysconf::NprocessorsOnln), 2);
        assert_eq!(
            client.sysconf(Some(id), Sysconf::PhysPages) * PAGE_SIZE,
            Bytes::from_mib(250).as_u64()
        );
        assert!(server.cell(CgroupId(99)).is_none());
    }

    #[test]
    fn degraded_provenance_is_deduped_per_tick() {
        use arv_telemetry::{CpuDecision, EventKind, MemDecision, Tracer};
        let tracer = Tracer::bounded(64);
        let server = ViewServer::with_telemetry(HostSpec::paper_testbed(), 8, tracer.clone());
        let id = CgroupId(1);
        server.register(
            id,
            CpuBounds {
                lower: 4,
                upper: 10,
            },
            EffectiveCpuConfig::default(),
            mk_mem(500, 1024),
        );
        let client = server.client();
        server.mirror(id, 8, Bytes::from_mib(800), Bytes::from_mib(700));
        for _ in 0..=STALENESS_BUDGET {
            server.advance_tick();
        }
        let fallback_decisions = |t: &Tracer| {
            t.events()
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        EventKind::Cpu(CpuDecision {
                            cause: DecisionCause::DegradedFallback,
                            ..
                        }) | EventKind::Mem(MemDecision {
                            cause: DecisionCause::DegradedFallback,
                            ..
                        })
                    )
                })
                .count()
        };
        // Hammering the degraded path within one tick traces exactly one
        // CPU + one memory decision, from the published view to the
        // fallback, whatever resource the query reads.
        for _ in 0..100 {
            client.read(Some(id), "/proc/cpuinfo").unwrap();
            client.sysconf(Some(id), Sysconf::PageSize);
        }
        assert_eq!(fallback_decisions(&tracer), 2);
        let pair = vec![
            EventKind::Cpu(CpuDecision {
                cause: DecisionCause::DegradedFallback,
                before: 8,
                after: 4,
                utilization: 0.0,
                had_slack: false,
            }),
            EventKind::Mem(MemDecision {
                cause: DecisionCause::DegradedFallback,
                before: Bytes::from_mib(800),
                after: Bytes::from_mib(500),
                usage: Bytes(0),
                free: Bytes(0),
            }),
        ];
        let traced = |t: &Tracer| -> Vec<EventKind> {
            let events = t.events();
            assert!(events.iter().all(|e| e.container == Some(id)));
            events.iter().map(|e| e.kind).collect()
        };
        assert_eq!(traced(&tracer), pair);
        // The next tick (still degraded) gets its own pair. Host callers
        // and host-global files are never degraded, so never trace.
        server.advance_tick();
        client.sysconf(None, Sysconf::PhysPages);
        client.read(Some(id), "/sys/devices/system/cpu/possible");
        assert_eq!(fallback_decisions(&tracer), 2);
        client.sysconf(Some(id), Sysconf::AvphysPages);
        assert_eq!(traced(&tracer), [pair.clone(), pair].concat());
    }

    #[test]
    fn prometheus_exposition_lists_counters_and_containers() {
        let (server, id) = server_with_one();
        let client = server.client();
        client.read(Some(id), "/proc/cpuinfo").unwrap();
        let text = server.prometheus_exposition();
        assert!(text.contains("# TYPE arv_viewd_queries counter"));
        assert!(text.contains("arv_viewd_queries_total 1"));
        assert!(text.contains("arv_container_effective_cpus{container=\"1\"} 4"));
        assert!(text.contains("arv_viewd_requests_shed_total"));
        assert!(text.contains("arv_viewd_conns_evicted_slow_total"));
        assert!(text.contains("arv_viewd_restore_reconciled_containers_total"));
        assert!(text.contains("arv_viewd_journal_truncated_records_total"));
        assert!(text.contains("arv_viewd_journal_io_errors_total"));
        assert!(text.contains("arv_viewd_durability_lost 0"));
        server.note_durability(true, 2);
        let text = server.prometheus_exposition();
        assert!(text.contains("arv_viewd_durability_lost 1"));
        assert!(text.contains("arv_viewd_journal_io_errors_total 2"));
        assert!(text.contains("arv_viewd_recovery_latency_ticks{stat=\"p99\"}"));
        assert!(text.contains(&format!(
            "arv_container_effective_bytes{{container=\"1\"}} {}",
            Bytes::from_mib(500).as_u64()
        )));
        // Every declared counter and histogram is served, each family
        // exactly once.
        for family in [
            "arv_viewd_wire_rejected_total",
            "arv_viewd_connections_accepted_total",
            "arv_viewd_connections_dropped_total",
            "arv_viewd_miss_latency_ns{stat=\"p99\"}",
            "arv_viewd_staleness_age_ticks{stat=\"mean\"}",
        ] {
            assert!(text.contains(family), "missing {family}");
        }
        let mut declared = PromText::new();
        server.metrics().expose(&mut declared);
        let declared = declared.finish();
        let types: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
        for family in declared.lines().filter(|l| l.starts_with("# TYPE ")) {
            let served = types.iter().filter(|l| **l == family).count();
            assert_eq!(served, 1, "{family} served {served} times");
        }
    }

    #[test]
    fn note_restore_counts_and_recovery_latency_closes_on_first_fresh() {
        let (server, id) = server_with_one();
        let client = server.client();
        server.mirror(id, 8, Bytes::from_mib(800), Bytes::from_mib(700));
        server.advance_tick(); // tick 1
        server.note_restore(2, 3);
        // Recovery is in flight; two ticks pass before a fresh publish.
        server.advance_tick();
        server.advance_tick(); // tick 3
        server.mirror(id, 8, Bytes::from_mib(800), Bytes::from_mib(700));
        server.mark_fresh(0);
        client.read(Some(id), "/proc/cpuinfo").unwrap();
        let m = server.metrics();
        assert_eq!(m.restore_reconciled_containers, 2);
        assert_eq!(m.journal_truncated_records, 3);
        assert!(
            m.recovery_latency_p99 >= 2,
            "first Fresh serve must record the recovery latency"
        );
        // Later Fresh serves do not re-record.
        client.read(Some(id), "/proc/cpuinfo").unwrap();
        assert_eq!(
            server.metrics().recovery_latency_p99,
            m.recovery_latency_p99
        );
    }

    mod image_table {
        use super::*;
        use arv_resview::render::CONTAINER_PATHS;
        use proptest::prelude::*;

        /// What `arv_resview::render` makes of `id` for a view.
        fn rendered(id: PathId, cpus: u32, mem: Bytes, avail: Bytes, host: &HostSpec) -> String {
            match id {
                PathId::Cpuinfo => render::cpuinfo(cpus),
                PathId::Meminfo => render::meminfo(mem, avail),
                PathId::Stat => render::stat(cpus),
                PathId::OnlineCpus => render::cpu_list(cpus),
                PathId::CpuMax => render::cpu_max(cpus, host.cfs_period_us),
                PathId::MemoryMax => render::memory_max(mem),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Every path at every CPU count up to two past the host's —
            /// the counts past it are not in the table and still answer —
            /// is byte-equal to the renderer, live and degraded, and two
            /// containers at one count share the CPU-keyed images.
            #[test]
            fn images_equal_the_renderers_and_are_shared(
                mems in prop::collection::vec(1u64..(1 << 40), 2..3),
                avail_pct in 0u64..101,
                fb_mem in 1u64..(1 << 40),
            ) {
                let host = HostSpec { online_cpus: 6, ..HostSpec::paper_testbed() };
                let server = ViewServer::new(host, 4);
                let client = server.client();
                let ids = [CgroupId(1), CgroupId(2)];
                for id in ids {
                    let bounds = CpuBounds { lower: 1, upper: host.online_cpus };
                    server.register(id, bounds, EffectiveCpuConfig::default(), mk_mem(500, 1024));
                }
                for cpus in 0..=host.online_cpus + 2 {
                    let views = [0, 1].map(|i| {
                        let mem = Bytes(mems[i]);
                        (mem, Bytes(mem.as_u64() / 100 * avail_pct))
                    });
                    for (id, (mem, avail)) in ids.into_iter().zip(views) {
                        prop_assert!(server.mirror(id, cpus, mem, avail));
                    }
                    server.mark_fresh(0);
                    for path in PathId::ALL {
                        let [a, b] = [0, 1].map(|i| {
                            let view = client.read(Some(ids[i]), CONTAINER_PATHS[path as usize]).expect("known path");
                            assert!(view.health.is_fresh());
                            let (mem, avail) = views[i];
                            assert_eq!(*view.image, rendered(path, cpus, mem, avail, &host));
                            view.image
                        });
                        prop_assert_eq!(
                            Arc::ptr_eq(&a, &b),
                            path.cpu_keyed() && cpus <= host.online_cpus
                        );
                    }
                    // Age both views past the budget: the fallback's
                    // images come from the same table and renderers.
                    let fb = Bytes(fb_mem);
                    for id in ids {
                        server.cell(id).expect("registered").set_fallback(cpus, fb);
                    }
                    for _ in 0..=STALENESS_BUDGET {
                        server.advance_tick();
                    }
                    for path in PathId::ALL {
                        for (id, (mem, avail)) in ids.into_iter().zip(views) {
                            let view = client.read(Some(id), CONTAINER_PATHS[path as usize]).expect("known path");
                            prop_assert!(view.health.is_degraded());
                            // What the usage the live view implies leaves
                            // of the fallback.
                            let fb_avail = fb.saturating_sub(mem - avail);
                            prop_assert_eq!(
                                &*view.image,
                                &rendered(path, cpus, fb, fb_avail, &host)
                            );
                        }
                    }
                }
                // Formatting happened once per table slot, plus once
                // per read the table does not cover.
                let m = server.metrics();
                let counts = u64::from(host.online_cpus) + 3;
                let slots = 4 * (u64::from(host.online_cpus) + 1);
                let uncovered = counts * 2 * 2 * 2 + 2 * 4 * 2 * 2;
                prop_assert_eq!(m.renders, slots + uncovered);
                prop_assert_eq!(m.cache_misses, counts * 6 * 2 * 2);
            }
        }
    }

    #[test]
    fn host_callers_never_degrade() {
        let (server, _) = server_with_one();
        let client = server.client();
        for _ in 0..50 {
            server.advance_tick();
        }
        assert!(client.health(None).is_fresh());
        let img = client.read(None, "/proc/cpuinfo").unwrap();
        assert!(img.health.is_fresh());
        assert_eq!(img.image.matches("processor").count(), 20);
    }
}

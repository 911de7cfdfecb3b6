//! Generation-stamped render cache.
//!
//! `arv-viewd` serves whole virtual-file images (a `/proc/cpuinfo` with
//! one stanza per effective CPU, a `/proc/meminfo` sized to the effective
//! view, …). Building one — a snapshot and an image-table lookup, or a
//! format for the memory-keyed files — costs more than answering, so
//! images are cached per `(container, path)` — and invalidated not by
//! clocks or explicit flushes but by the namespace cell's seqlock
//! generation: a cached image is served only while its stamp equals the
//! cell's current even generation. Any published update moves the
//! generation, and the next query rebuilds from a fresh untorn
//! [`arv_resview::ViewSnapshot`]. A torn image can never be cached
//! because an image takes all its inputs from one snapshot. The bytes
//! themselves may be shared: the CPU-keyed files' images live once per
//! CPU count in the server's image table and a cache entry holds a
//! pointer to them.
//!
//! The set of renderable paths is closed, so paths are interned into a
//! [`PathId`] once at the query boundary and the cache is a fixed array
//! indexed by it — the hit path does a handful of byte compares and an
//! array index instead of hashing a heap string under the lock.

use std::sync::{Arc, Mutex};

/// A renderable container path, interned (see
/// [`crate::server::CONTAINER_PATHS`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathId {
    /// `/proc/cpuinfo`
    Cpuinfo,
    /// `/proc/meminfo`
    Meminfo,
    /// `/proc/stat`
    Stat,
    /// `/sys/devices/system/cpu/online`
    OnlineCpus,
    /// cgroup v2 `cpu.max`
    CpuMax,
    /// cgroup v2 `memory.max`
    MemoryMax,
}

impl PathId {
    /// Number of distinct renderable paths.
    pub const COUNT: usize = 6;

    /// Every renderable path, in discriminant order.
    pub const ALL: [PathId; PathId::COUNT] = [
        PathId::Cpuinfo,
        PathId::Meminfo,
        PathId::Stat,
        PathId::OnlineCpus,
        PathId::CpuMax,
        PathId::MemoryMax,
    ];

    /// Whether the file's image is a function of the CPU count alone
    /// (the rest are functions of the memory sizes alone).
    pub fn cpu_keyed(self) -> bool {
        !matches!(self, PathId::Meminfo | PathId::MemoryMax)
    }

    /// Intern a path string (`None` for paths the daemon cannot render).
    pub fn resolve(path: &str) -> Option<PathId> {
        match path {
            "/proc/cpuinfo" => Some(PathId::Cpuinfo),
            "/proc/meminfo" => Some(PathId::Meminfo),
            "/proc/stat" => Some(PathId::Stat),
            "/sys/devices/system/cpu/online" => Some(PathId::OnlineCpus),
            "cpu.max" => Some(PathId::CpuMax),
            "memory.max" => Some(PathId::MemoryMax),
            _ => None,
        }
    }
}

/// A rendered file image plus the generation it was rendered from.
#[derive(Debug, Clone)]
pub struct CachedImage {
    /// The cell generation whose snapshot produced this image.
    pub generation: u64,
    /// The rendered bytes (shared, so serving is one `Arc` clone).
    pub image: Arc<String>,
}

/// Per-container cache of rendered images, indexed by interned path.
#[derive(Debug)]
pub struct RenderCache {
    entries: Mutex<[Option<CachedImage>; PathId::COUNT]>,
}

impl Default for RenderCache {
    fn default() -> RenderCache {
        RenderCache {
            entries: Mutex::new(std::array::from_fn(|_| None)),
        }
    }
}

impl RenderCache {
    /// An empty cache.
    pub fn new() -> RenderCache {
        RenderCache::default()
    }

    /// The cached image for `path`, but only if it was rendered at
    /// exactly `generation` — anything else is stale (or from a future
    /// writer this reader hasn't observed) and must be re-rendered.
    pub fn get(&self, path: PathId, generation: u64) -> Option<Arc<String>> {
        // Poison recovery: a panicking renderer can't leave the whole
        // container unservable. Every cached value is internally
        // consistent (written in one assignment), so reading past a
        // poison marker is safe.
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries[path as usize]
            .as_ref()
            .filter(|c| c.generation == generation)
            .map(|c| Arc::clone(&c.image))
    }

    /// Store an image rendered at `generation`. A racing older render
    /// never overwrites a newer one: stamps only move forward, so cached
    /// generations are monotone per path.
    pub fn put(&self, path: PathId, generation: u64, image: Arc<String>) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        match &mut entries[path as usize] {
            Some(existing) if existing.generation > generation => {}
            slot => *slot = Some(CachedImage { generation, image }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_round_trips_every_path() {
        for path in crate::server::CONTAINER_PATHS {
            let id = PathId::resolve(path).expect("known path");
            assert_eq!(id.as_str(), path);
        }
        assert!(PathId::resolve("/proc/uptime").is_none());
    }

    #[test]
    fn serves_only_matching_generation() {
        let cache = RenderCache::new();
        cache.put(PathId::Cpuinfo, 4, Arc::new("gen4".into()));
        assert_eq!(cache.get(PathId::Cpuinfo, 4).unwrap().as_str(), "gen4");
        assert!(cache.get(PathId::Cpuinfo, 6).is_none());
        assert!(cache.get(PathId::Meminfo, 4).is_none());
    }

    #[test]
    fn stale_put_never_overwrites_newer() {
        let cache = RenderCache::new();
        cache.put(PathId::Stat, 6, Arc::new("new".into()));
        cache.put(PathId::Stat, 4, Arc::new("old".into())); // racing old render
        assert!(cache.get(PathId::Stat, 4).is_none());
        assert_eq!(cache.get(PathId::Stat, 6).unwrap().as_str(), "new");
    }

    #[test]
    fn newer_put_replaces() {
        let cache = RenderCache::new();
        cache.put(PathId::Stat, 4, Arc::new("old".into()));
        cache.put(PathId::Stat, 6, Arc::new("new".into()));
        assert_eq!(cache.get(PathId::Stat, 6).unwrap().as_str(), "new");
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    impl PathId {
        /// The canonical path string.
        pub(crate) fn as_str(self) -> &'static str {
            match self {
                PathId::Cpuinfo => "/proc/cpuinfo",
                PathId::Meminfo => "/proc/meminfo",
                PathId::Stat => "/proc/stat",
                PathId::OnlineCpus => "/sys/devices/system/cpu/online",
                PathId::CpuMax => "cpu.max",
                PathId::MemoryMax => "memory.max",
            }
        }
    }

    impl RenderCache {
        /// Number of cached paths.
        fn len(&self) -> usize {
            self.entries
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .filter(|e| e.is_some())
                .count()
        }

        /// Whether nothing is cached.
        fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }
}

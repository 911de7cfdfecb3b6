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
//! The set of renderable paths is closed, so a query interns its path
//! into an [`arv_resview::PathId`] once, with the one resolver, and the
//! cache is a fixed array indexed by it — the hit path does a handful of
//! byte compares and an array index instead of hashing a heap string
//! under the lock.

use arv_resview::PathId;
use std::sync::{Arc, Mutex};

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

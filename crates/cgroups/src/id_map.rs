//! [`IdMap`]: the per-container table of the host's hot loops.
//!
//! The update timer walks three per-container tables in lockstep every
//! period (the monitor's namespaces, the CPU ledger, the memory
//! manager's groups), and kswapd scans one of them on every reclaiming
//! step. A tree makes each of those walks pointer-chasing; two
//! id-sorted vectors make them a stride through contiguous memory.

use crate::manager::CgroupId;
use std::fmt;

/// A map from [`CgroupId`] to `V`, kept as two parallel id-sorted
/// vectors (keys and values) and searched by binary search.
///
/// It offers the subset of `BTreeMap`'s interface the host's tables
/// use, with the same semantics and the same (id) iteration order.
///
/// Costs: a lookup is a binary search over a dense key array. An
/// insert of a key past the last one appends without searching, and
/// cgroup ids are allocated monotonically, so container launch (and the
/// monitor's `sync`, `resync` and `recover`, which walk the hierarchy in
/// id order) always append. A removal (container termination) shifts
/// the tail down, O(N) in the population: a terminate already triggers
/// a recompute of every namespace's static bounds, which dominates it.
#[derive(Clone)]
pub struct IdMap<V> {
    keys: Vec<CgroupId>,
    values: Vec<V>,
}

impl<V> Default for IdMap<V> {
    fn default() -> Self {
        IdMap {
            keys: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<V: fmt::Debug> fmt::Debug for IdMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V> IdMap<V> {
    /// An empty map.
    pub fn new() -> IdMap<V> {
        IdMap::default()
    }

    /// `Ok(slot)` of `id`, or `Err(slot)` where it would be inserted. A
    /// key past the last one answers without a search.
    fn find(&self, id: CgroupId) -> Result<usize, usize> {
        match self.keys.last() {
            Some(last) if *last < id => Err(self.keys.len()),
            None => Err(0),
            Some(_) => self.keys.binary_search(&id),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The value under `id`.
    pub fn get(&self, id: &CgroupId) -> Option<&V> {
        self.find(*id).ok().map(|i| &self.values[i])
    }

    /// Mutable access to the value under `id`.
    pub fn get_mut(&mut self, id: &CgroupId) -> Option<&mut V> {
        self.find(*id).ok().map(|i| &mut self.values[i])
    }

    /// Whether `id` has an entry.
    pub fn contains_key(&self, id: &CgroupId) -> bool {
        self.find(*id).is_ok()
    }

    /// Put `value` under `id`; the value it replaces, if any.
    pub fn insert(&mut self, id: CgroupId, value: V) -> Option<V> {
        match self.find(id) {
            Ok(i) => Some(std::mem::replace(&mut self.values[i], value)),
            Err(i) => {
                self.keys.insert(i, id);
                self.values.insert(i, value);
                None
            }
        }
    }

    /// Take out the entry under `id`, shifting the later ones down.
    pub fn remove(&mut self, id: &CgroupId) -> Option<V> {
        let i = self.find(*id).ok()?;
        self.keys.remove(i);
        Some(self.values.remove(i))
    }

    /// The slot for `id`, to fill if vacant.
    pub fn entry(&mut self, id: CgroupId) -> Entry<'_, V> {
        let slot = self.find(id);
        Entry {
            map: self,
            id,
            slot,
        }
    }

    /// Keep only the entries `keep` approves, visited in id order.
    pub fn retain(&mut self, mut keep: impl FnMut(&CgroupId, &mut V) -> bool) {
        let mut kept = 0;
        for i in 0..self.keys.len() {
            if keep(&self.keys[i], &mut self.values[i]) {
                self.keys.swap(kept, i);
                self.values.swap(kept, i);
                kept += 1;
            }
        }
        self.keys.truncate(kept);
        self.values.truncate(kept);
    }

    /// Entries in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&CgroupId, &V)> {
        self.keys.iter().zip(&self.values)
    }

    /// Entries in id order, values mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&CgroupId, &mut V)> {
        self.keys.iter().zip(&mut self.values)
    }

    /// Keys in id order.
    pub fn keys(&self) -> impl Iterator<Item = &CgroupId> {
        self.keys.iter()
    }

    /// Values in id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.values.iter()
    }

    /// Values in id order, mutable.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.values.iter_mut()
    }
}

/// A slot of an [`IdMap`], occupied or not (from [`IdMap::entry`]).
pub struct Entry<'a, V> {
    map: &'a mut IdMap<V>,
    id: CgroupId,
    slot: Result<usize, usize>,
}

impl<'a, V: Default> Entry<'a, V> {
    /// The slot's value, a default one inserted first if it was vacant.
    pub fn or_default(self) -> &'a mut V {
        let i = match self.slot {
            Ok(i) => i,
            Err(i) => {
                self.map.keys.insert(i, self.id);
                self.map.values.insert(i, V::default());
                i
            }
        };
        &mut self.map.values[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn appends_and_inserts_keep_id_order() {
        let mut m = IdMap::new();
        for id in [3, 7, 1, 9, 5] {
            assert_eq!(m.insert(CgroupId(id), id * 10), None);
        }
        assert_eq!(m.insert(CgroupId(7), 0), Some(70));
        let ids: Vec<u32> = m.keys().map(|id| id.0).collect();
        assert_eq!(ids, [1, 3, 5, 7, 9]);
        assert_eq!(m.remove(&CgroupId(3)), Some(30));
        assert_eq!(m.remove(&CgroupId(3)), None);
        assert_eq!(m.get(&CgroupId(7)), Some(&0));
        assert_eq!(
            format!("{m:?}"),
            "{CgroupId(1): 10, CgroupId(5): 50, CgroupId(7): 0, CgroupId(9): 90}"
        );
    }

    proptest! {
        /// Random inserts, removals, `entry().or_default()` bumps,
        /// `get_mut` writes, in-place walks and `retain`s, with ids
        /// drawn both past every key so far (the append path launch
        /// takes) and at random (out of order, repeats included): after
        /// every operation the map holds what a `BTreeMap` holds, in the
        /// same order.
        #[test]
        fn matches_a_btreemap(
            ops in prop::collection::vec((0u8..7, 0u32..24, 0u32..100, prop::bool::ANY), 1..120)
        ) {
            let (mut map, mut oracle) = (IdMap::new(), BTreeMap::new());
            for (op, drawn, value, ascending) in ops {
                let id = if ascending {
                    CgroupId(oracle.keys().next_back().map_or(0, |k: &CgroupId| k.0 + 1) + drawn % 3)
                } else {
                    CgroupId(drawn)
                };
                match op {
                    0 => prop_assert_eq!(map.insert(id, value), oracle.insert(id, value)),
                    1 => prop_assert_eq!(map.remove(&id), oracle.remove(&id)),
                    2 => {
                        *map.entry(id).or_default() += value;
                        *oracle.entry(id).or_default() += value;
                    }
                    3 => {
                        if let Some(v) = map.get_mut(&id) {
                            *v = value;
                        }
                        if let Some(v) = oracle.get_mut(&id) {
                            *v = value;
                        }
                    }
                    4 => {
                        // In-order visits: the visit sequence matches too.
                        let (mut seen, mut oracle_seen) = (Vec::new(), Vec::new());
                        map.retain(|k, v| {
                            seen.push(*k);
                            *v += 1;
                            (k.0 + *v + value) % 3 != 0
                        });
                        oracle.retain(|k, v| {
                            oracle_seen.push(*k);
                            *v += 1;
                            (k.0 + *v + value) % 3 != 0
                        });
                        prop_assert_eq!(seen, oracle_seen);
                    }
                    5 => {
                        for (k, v) in map.iter_mut() {
                            *v += k.0;
                        }
                        for (k, v) in oracle.iter_mut() {
                            *v += k.0;
                        }
                        map.values_mut().for_each(|v| *v %= 1000);
                        oracle.values_mut().for_each(|v| *v %= 1000);
                    }
                    _ => {
                        prop_assert_eq!(map.get(&id), oracle.get(&id));
                        prop_assert_eq!(map.contains_key(&id), oracle.contains_key(&id));
                    }
                }
                prop_assert_eq!(map.len(), oracle.len());
                prop_assert_eq!(map.is_empty(), oracle.is_empty());
                prop_assert!(map.iter().eq(oracle.iter()));
                prop_assert!(map.keys().eq(oracle.keys()));
                prop_assert!(map.values().eq(oracle.values()));
            }
        }
    }
}

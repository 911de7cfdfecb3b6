//! [`IdMap`]: the one id-sorted table, keys and values in two parallel
//! sorted vectors, so every walk is a stride through contiguous memory,
//! in the same order on every run. It holds every per-container and
//! per-host table:
//!
//! - on a host: the monitor's namespaces, the CPU ledger's and the
//!   memory manager's groups (the update timer walks the three in
//!   lockstep), the monitor's change list, the cgroup manager's groups,
//!   a period's `Allocation::granted`, and `SimHost`'s containers and
//!   pending change lists;
//! - in the fleet controller: a shard's hosts, its per-tenant totals,
//!   each host's containers and the REPL stream's heard hosts;
//! - in the fleet periphery: the shipped-state mirror, the tenant
//!   records and the pending removals.
//!
//! Beside a `BTreeMap` subset it owns what its users would otherwise
//! each write by hand: the cursor lookup ([`IdMap::seek`],
//! [`IdMap::get_from`]) and the last-wins upsert of an unsorted batch
//! ([`IdMap::upsert`]), which merges new keys in from the back in one
//! pass.
//!
//! A key is an id, `Copy + Ord + Into<u64>` (`u32`, or `CgroupId` by its
//! `From<CgroupId> for u64`), so a lookup can measure a key's distance:
//! a host's ids run dense, so every keyed lookup first probes the slot
//! the key's distance from the first key names, and searches only when
//! that slot holds another key.

use std::fmt;

/// Slots [`IdMap::seek`] steps through one by one before it gallops.
const SEEK_STEP: usize = 8;

/// A map from `K` to `V` with `BTreeMap`'s semantics and (key) order.
///
/// A lookup is the distance probe, then a binary search over the key
/// array, skipped for a key past the last one, which appends: ids are
/// allocated monotonically, so a container launch (and the monitor's
/// `sync`, `resync` and `recover`, which walk the hierarchy in id order)
/// always appends. A removal shifts the tail down, O(N): a termination
/// already triggers a recompute of every namespace's static bounds,
/// which dominates it.
#[derive(Clone, PartialEq, Eq)]
pub struct IdMap<K, V> {
    keys: Vec<K>,
    values: Vec<V>,
}

impl<K, V> Default for IdMap<K, V> {
    fn default() -> Self {
        IdMap {
            keys: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for IdMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.keys.iter().zip(&self.values))
            .finish()
    }
}

impl<K: Copy + Ord + Into<u64>, V> IdMap<K, V> {
    /// An empty map.
    pub fn new() -> IdMap<K, V> {
        IdMap::default()
    }

    /// `Ok(slot)` of `key`, or `Err(slot)` where it would be inserted:
    /// the distance probe from the first slot, else a binary search, or
    /// none for a key past the last one.
    #[inline]
    fn find(&self, key: K) -> Result<usize, usize> {
        if let Some(slot) = self.by_distance(0, key) {
            return Ok(slot);
        }
        match self.keys.last() {
            Some(last) if *last >= key => self.search(self.keys.len(), key),
            _ => Err(self.keys.len()),
        }
    }

    /// Where `key` is (`Ok`) or would be inserted (`Err`), searched from
    /// the cursor `at`, the slot after the last one found. It is first
    /// looked for `key − keys[at]` slots on: its own slot in a dense run
    /// of ids, whichever part of the run a sorted batch holds. Else a
    /// key behind the cursor is binary-searched in the slots before it,
    /// and one ahead is looked for in the next `SEEK_STEP` (8) slots one
    /// by one and past them galloped to: probes 1, 2, 4, … slots on,
    /// then a binary search of the last step. Walking a sorted batch of
    /// k keys into n therefore costs O(k log(n/k)), and an unsorted one
    /// stays correct.
    #[inline]
    pub fn seek(&self, at: usize, key: K) -> Result<usize, usize> {
        match self.by_distance(at, key) {
            Some(slot) => Ok(slot),
            None => self.search(at, key),
        }
    }

    /// [`seek`](IdMap::seek) past its distance probe: behind the cursor a
    /// binary search, ahead of it the step and the gallop.
    fn search(&self, at: usize, key: K) -> Result<usize, usize> {
        let keys = &self.keys;
        let at = at.min(keys.len());
        if at > 0 && keys[at - 1] >= key {
            return keys[..at].binary_search(&key);
        }
        let near = keys.len().min(at + SEEK_STEP);
        for (i, k) in keys[at..near].iter().enumerate() {
            if *k >= key {
                return if *k == key { Ok(at + i) } else { Err(at + i) };
            }
        }
        // Every key before `lo` is below `key`.
        let (mut lo, mut step) = (near, 1);
        let hi = loop {
            let probe = lo + step - 1;
            match keys.get(probe) {
                Some(k) if *k < key => {
                    lo = probe + 1;
                    step *= 2;
                }
                _ => break (probe + 1).min(keys.len()),
            }
        };
        let slot = keys[lo..hi].binary_search(&key);
        slot.map(|i| lo + i).map_err(|i| lo + i)
    }

    /// The value under `key`, [`seek`](IdMap::seek)ed from the cursor
    /// `at`, which moves past `key`'s slot, or to where it would be.
    #[inline]
    pub fn get_from(&self, at: &mut usize, key: K) -> Option<&V> {
        let slot = self.seek(*at, key);
        *at = slot.map_or_else(|i| i, |i| i + 1);
        slot.ok().map(|i| &self.values[i])
    }

    /// The slot `key − keys[at]` slots on from `at` (wrapping) if it
    /// holds `key`, which is then its only one: keys are distinct.
    #[inline]
    fn by_distance(&self, at: usize, key: K) -> Option<usize> {
        let here = *self.keys.get(at)?;
        let slot = at.wrapping_add(key.into().wrapping_sub(here.into()) as usize);
        (self.keys.get(slot) == Some(&key)).then_some(slot)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether there are no entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Drop every entry, keeping the buffers.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.values.clear();
    }

    /// The value under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(*key).ok().map(|i| &self.values[i])
    }

    /// Mutable access to the value under `key`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(*key).ok().map(|i| &mut self.values[i])
    }

    /// Whether `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(*key).is_ok()
    }

    /// Put `value` under `key`; the value it replaces, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(key) {
            Ok(i) => Some(std::mem::replace(&mut self.values[i], value)),
            Err(i) => {
                self.keys.insert(i, key);
                self.values.insert(i, value);
                None
            }
        }
    }

    /// Take out the entry under `key`, shifting the later ones down.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.find(*key).ok()?;
        self.keys.remove(i);
        Some(self.values.remove(i))
    }

    /// The slot for `key`, to fill if vacant.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        let slot = self.find(key);
        Entry {
            map: self,
            key,
            slot,
        }
    }

    /// Put the `entry` of each item of `batch` in, in order, as a run of
    /// [`insert`](IdMap::insert)s would: of a repeated key the last value
    /// wins. `changed(old, new)` is told of each value before it lands,
    /// `old` the one it replaces (`None` for a new key; a new key below
    /// the last is told once, with its last value). Each key is
    /// [`seek`](IdMap::seek)ed from where the previous one landed and
    /// replaced in place, or appended past the last; the other new keys
    /// are stably sorted and merged in from the back in one pass. A batch
    /// of k keys into n costs O(k log k + n) at worst, never O(k·n).
    /// Items become entries here, not in the iterator: iterating
    /// `(key, 32-byte value)` pairs read 2–3× slower a key (2-vCPU VM).
    pub fn upsert<T>(
        &mut self,
        batch: impl IntoIterator<Item = T>,
        entry: impl Fn(T) -> (K, V),
        mut changed: impl FnMut(Option<&V>, &V),
    ) where
        V: Copy,
    {
        let mut fresh: Vec<(K, V)> = Vec::new();
        let mut at = 0;
        let batch = batch.into_iter();
        if self.keys.is_empty() {
            // A FULL: one allocation a vector, not one a doubling.
            self.keys.reserve(batch.size_hint().0);
            self.values.reserve(batch.size_hint().0);
        }
        for item in batch {
            let (key, value) = entry(item);
            match self.seek(at, key) {
                Ok(i) => {
                    changed(Some(&self.values[i]), &value);
                    self.values[i] = value;
                    at = i + 1;
                }
                Err(i) if i == self.keys.len() => {
                    changed(None, &value);
                    self.keys.push(key);
                    self.values.push(value);
                    at = i + 1;
                }
                Err(i) => {
                    fresh.push((key, value));
                    at = i;
                }
            }
        }
        last_wins(&mut fresh);
        // From the top down, each slot takes the larger of the last
        // entry not yet moved and the last new one not yet merged.
        let (mut i, mut j) = (self.keys.len(), fresh.len());
        self.keys.extend(fresh.iter().map(|e| e.0));
        self.values.extend(fresh.iter().map(|e| e.1));
        while j > 0 {
            let top = i + j - 1;
            if i > 0 && self.keys[i - 1] > fresh[j - 1].0 {
                (self.keys[top], self.values[top]) = (self.keys[i - 1], self.values[i - 1]);
                i -= 1;
            } else {
                changed(None, &fresh[j - 1].1);
                (self.keys[top], self.values[top]) = fresh[j - 1];
                j -= 1;
            }
        }
    }

    /// Keep only the entries `keep` approves, visited in key order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
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

    /// Entries in key order.
    pub fn iter(&self) -> std::iter::Zip<std::slice::Iter<'_, K>, std::slice::Iter<'_, V>> {
        self.keys.iter().zip(&self.values)
    }

    /// Entries in key order, values mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.keys.iter().zip(&mut self.values)
    }

    /// Keys in order.
    pub fn keys(&self) -> std::slice::Iter<'_, K> {
        self.keys.iter()
    }

    /// Values in key order; `as_slice` gives them as one slice, which
    /// the slots [`seek`](IdMap::seek) returns index.
    pub fn values(&self) -> std::slice::Iter<'_, V> {
        self.values.iter()
    }

    /// Values in key order, mutable; `into_slice` gives them as one
    /// slice (the keys stay put).
    pub fn values_mut(&mut self) -> std::slice::IterMut<'_, V> {
        self.values.iter_mut()
    }
}

/// Sort `batch` by key, stably, and keep one entry a key: the last.
fn last_wins<K: Copy + Ord, V>(batch: &mut Vec<(K, V)>) {
    batch.sort_by_key(|e| e.0);
    batch.dedup_by(|later, kept| {
        let repeat = later.0 == kept.0;
        if repeat {
            std::mem::swap(later, kept);
        }
        repeat
    });
}

/// What inserting `batch` in order leaves, sorted once.
impl<K: Copy + Ord, V> FromIterator<(K, V)> for IdMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(batch: I) -> IdMap<K, V> {
        let mut pairs: Vec<(K, V)> = batch.into_iter().collect();
        last_wins(&mut pairs);
        let (keys, values) = pairs.into_iter().unzip();
        IdMap { keys, values }
    }
}

impl<'a, K: Copy + Ord + Into<u64>, V> IntoIterator for &'a IdMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Zip<std::slice::Iter<'a, K>, std::slice::Iter<'a, V>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A slot of an [`IdMap`], occupied or not (from [`IdMap::entry`]).
pub struct Entry<'a, K, V> {
    map: &'a mut IdMap<K, V>,
    key: K,
    slot: Result<usize, usize>,
}

impl<'a, K: Copy + Ord, V: Default> Entry<'a, K, V> {
    /// The slot's value, a default one inserted first if it was vacant.
    pub fn or_default(self) -> &'a mut V {
        let i = match self.slot {
            Ok(i) => i,
            Err(i) => {
                self.map.keys.insert(i, self.key);
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
        for id in [3u32, 7, 1, 9, 5] {
            assert_eq!(m.insert(id, id * 10), None);
        }
        assert_eq!(m.insert(7, 0), Some(70));
        let ids: Vec<u32> = m.keys().copied().collect();
        assert_eq!(ids, [1, 3, 5, 7, 9]);
        assert_eq!(m.remove(&3), Some(30));
        assert_eq!(m.remove(&3), None);
        assert_eq!(m.get(&7), Some(&0));
        assert_eq!(format!("{m:?}"), "{1: 10, 5: 50, 7: 0, 9: 90}");
    }

    /// `seek` from every cursor answers what a binary search of the
    /// whole table does (and `get_from` the value there, moving the
    /// cursor past it), for every key from below the first to past the
    /// last: found or not, by its distance from the cursor's key, inside
    /// the short step, one slot past it, further on, behind the cursor
    /// and past the end. The tables: odd keys (every even key absent,
    /// so a distance names the key's slot only at distance 0) and dense
    /// runs, of 0 to 40 keys; dense runs with one gap, at every place;
    /// and dense runs ending at `u32::MAX`, where the distance
    /// arithmetic meets the top of the key range.
    #[test]
    fn seek_equals_a_binary_search_from_every_cursor() {
        let mut tables: Vec<Vec<u32>> = Vec::new();
        for len in 0..=40u32 {
            tables.push((0..len).map(|i| 2 * i + 1).collect());
            tables.push((100..100 + len).collect());
            tables.push((0..len).map(|i| u32::MAX - i).rev().collect());
        }
        for len in 1..=20u32 {
            for gap in 0..=len {
                tables.push((100..=100 + len).filter(|k| *k != 100 + gap).collect());
            }
        }
        let (mut inside, mut one_past, mut further, mut behind, mut past_end) = (0, 0, 0, 0, 0);
        let (mut in_place, mut by_distance) = (0, 0);
        for keys in tables {
            let map: IdMap<u32, ()> = keys.iter().map(|k| (*k, ())).collect();
            let first = keys.first().map_or(0, |k| k.saturating_sub(2));
            let last = keys.last().map_or(2, |k| k.saturating_add(2));
            for at in 0..=keys.len() {
                for key in first..=last {
                    let want = keys.binary_search(&key);
                    assert_eq!(map.seek(at, key), want, "{keys:?}, cursor {at}, key {key}");
                    let mut cursor = at;
                    assert_eq!(map.get_from(&mut cursor, key), want.ok().map(|_| &()));
                    assert_eq!(cursor, want.map_or_else(|i| i, |i| i + 1));
                    if let Some(slot) = map.by_distance(at, key) {
                        assert_eq!(Ok(slot), want, "{keys:?}, cursor {at}, key {key}");
                        if slot == at {
                            in_place += 1;
                        } else {
                            by_distance += 1;
                        }
                    }
                    let (Ok(slot) | Err(slot)) = want;
                    if slot == keys.len() {
                        past_end += 1;
                    } else if at > 0 && keys[at - 1] >= key {
                        behind += 1;
                    } else if slot < at + SEEK_STEP {
                        inside += 1;
                    } else if slot == at + SEEK_STEP {
                        one_past += 1;
                    } else {
                        further += 1;
                    }
                }
            }
        }
        assert!(inside > 0 && one_past > 0 && further > 0 && behind > 0 && past_end > 0);
        assert!(
            in_place > 0 && by_distance > 0,
            "the distance probe never answered"
        );
    }

    /// Every keyed lookup — `get`, `get_mut`, `contains_key`, `insert`,
    /// `remove` and `entry` — answers what a binary search of the keys
    /// does, for every key from below the first to past the last, over
    /// empty, dense, gapped (one gap at every place), sparse (odd keys)
    /// and shifted tables (dense runs starting anywhere, up to ones
    /// ending at `u32::MAX`, where the distance arithmetic wraps). The
    /// distance probe's answers are counted, at the first slot and
    /// further on, so a probe that never answers fails.
    #[test]
    fn every_keyed_lookup_answers_what_a_binary_search_does() {
        let mut tables: Vec<Vec<u32>> = vec![Vec::new()];
        for len in 1..=24u32 {
            tables.push((100..100 + len).collect());
            tables.push((0..len).map(|i| 2 * i + 1).collect());
            for start in [0, 1, 7, u32::MAX / 2, u32::MAX - len + 1] {
                tables.push((0..len).map(|i| start + i).collect());
            }
            for gap in 0..=len {
                tables.push((100..=100 + len).filter(|k| *k != 100 + gap).collect());
            }
        }
        let (mut probed_first, mut probed_further, mut searched) = (0, 0, 0);
        for keys in tables {
            let map: IdMap<u32, u32> = keys.iter().map(|k| (*k, k.wrapping_mul(3))).collect();
            let oracle: BTreeMap<u32, u32> = map.iter().map(|(k, v)| (*k, *v)).collect();
            let first = keys.first().map_or(0, |k| k.saturating_sub(2));
            let last = keys.last().map_or(2, |k| k.saturating_add(2));
            for key in first..=last {
                let want = keys.binary_search(&key);
                assert_eq!(map.find(key), want, "{keys:?}, key {key}");
                match map.by_distance(0, key) {
                    Some(slot) => {
                        assert_eq!(Ok(slot), want, "{keys:?}, key {key}");
                        if slot == 0 {
                            probed_first += 1;
                        } else {
                            probed_further += 1;
                        }
                    }
                    None => searched += usize::from(want.is_ok()),
                }
                assert_eq!(map.get(&key), oracle.get(&key));
                assert_eq!(map.contains_key(&key), oracle.contains_key(&key));
                let (mut m, mut o) = (map.clone(), oracle.clone());
                assert_eq!(m.get_mut(&key).map(|v| *v), o.get_mut(&key).map(|v| *v));
                assert_eq!(m.insert(key, 1), o.insert(key, 1));
                *m.entry(key).or_default() += 1;
                *o.entry(key).or_default() += 1;
                assert!(m.iter().eq(o.iter()), "{keys:?}, key {key}");
                let (mut m, mut o) = (map.clone(), oracle.clone());
                assert_eq!(m.remove(&key), o.remove(&key));
                *m.entry(key).or_default() += 1;
                *o.entry(key).or_default() += 1;
                assert!(m.iter().eq(o.iter()), "{keys:?}, key {key}");
            }
        }
        assert!(
            probed_first > 0 && probed_further > 0,
            "the distance probe never answered"
        );
        assert!(searched > 0, "no present key fell through to the search");
    }

    /// An upsert tells every value that lands, old and new, so a running
    /// sum kept from what it is told stays the sum of the values; a
    /// repeated key's last value wins; and new keys below the last are
    /// merged in, not shifted in one at a time.
    #[test]
    fn an_upsert_tells_what_lands_and_the_last_value_wins() {
        let mut m: IdMap<u32, u64> = [(10, 1), (20, 2), (30, 3)].into_iter().collect();
        let mut sum: u64 = m.values().sum();
        let mut told = Vec::new();
        let batch = [(20, 5), (40, 4), (15, 7), (5, 9), (15, 8), (40, 6), (5, 1)];
        m.upsert(
            batch,
            |e| e,
            |old, new| {
                sum = sum + new - old.copied().unwrap_or(0);
                told.push((old.copied(), *new));
            },
        );
        assert_eq!(
            format!("{m:?}"),
            "{5: 1, 10: 1, 15: 8, 20: 5, 30: 3, 40: 6}"
        );
        assert_eq!(sum, m.values().sum::<u64>());
        assert_eq!(
            told,
            [(Some(2), 5), (None, 4), (Some(4), 6), (None, 8), (None, 1)]
        );
    }

    proptest! {
        /// Random inserts, removals, `entry().or_default()` bumps,
        /// `get_mut` writes, in-place walks, `retain`s, batch upserts
        /// (unsorted, repeats included), `collect`s, and `seek` asked
        /// from every cursor, with keys drawn both past
        /// every key so far (the append path a launch takes) and at
        /// random: after every operation the map holds what a `BTreeMap`
        /// holds, in the same order; an upsert tells each landing value
        /// with the value it replaces; and a seek from any cursor lands
        /// where a binary search does.
        #[test]
        fn matches_a_btreemap(
            ops in prop::collection::vec(
                (0u8..10, 0u32..24, 0u32..100, prop::bool::ANY,
                 prop::collection::vec((0u32..30, 0u32..100), 0..12)),
                1..120,
            )
        ) {
            let (mut map, mut oracle) = (IdMap::new(), BTreeMap::new());
            for (op, drawn, value, ascending, batch) in ops {
                let id = if ascending {
                    oracle.keys().next_back().map_or(0, |k: &u32| k + 1) + drawn % 3
                } else {
                    drawn
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
                            (k + *v + value) % 3 != 0
                        });
                        oracle.retain(|k, v| {
                            oracle_seen.push(*k);
                            *v += 1;
                            (k + *v + value) % 3 != 0
                        });
                        prop_assert_eq!(seen, oracle_seen);
                    }
                    5 => {
                        for (k, v) in map.iter_mut() {
                            *v += k;
                        }
                        for (k, v) in oracle.iter_mut() {
                            *v += k;
                        }
                        map.values_mut().for_each(|v| *v %= 1000);
                        oracle.values_mut().for_each(|v| *v %= 1000);
                    }
                    6 => {
                        // The batch, unsorted and with repeats — or, when
                        // `ascending`, a sorted run of new keys, which
                        // upsert merges in.
                        let batch: Vec<(u32, u32)> = if ascending {
                            let run: BTreeMap<u32, u32> = batch
                                .into_iter()
                                .filter(|(k, _)| !oracle.contains_key(k))
                                .collect();
                            run.into_iter().collect()
                        } else {
                            batch
                        };
                        // A sum kept from what upsert tells stays the sum,
                        // and each new key is told once.
                        let (mut told, mut new_keys) = (map.values().map(|v| u64::from(*v)).sum::<u64>(), 0);
                        map.upsert(batch.iter().copied(), |e| e, |old, new| {
                            told = told + u64::from(*new) - old.map_or(0, |v| u64::from(*v));
                            new_keys += usize::from(old.is_none());
                        });
                        let before = oracle.len();
                        oracle.extend(batch);
                        prop_assert_eq!(told, map.values().map(|v| u64::from(*v)).sum::<u64>());
                        prop_assert_eq!(new_keys, oracle.len() - before);
                    }
                    7 => {
                        // A fresh map from the batch: last value wins.
                        map = batch.iter().copied().collect();
                        oracle = batch.into_iter().collect();
                    }
                    8 => {
                        let keys: Vec<u32> = oracle.keys().copied().collect();
                        for at in 0..=keys.len() {
                            for key in 0..=keys.last().map_or(1, |k| k + 1) {
                                prop_assert_eq!(map.seek(at, key), keys.binary_search(&key));
                            }
                        }
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
                prop_assert!(map.values().as_slice().iter().eq(oracle.values()));
            }
        }
    }
}

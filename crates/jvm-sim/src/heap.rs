//! The generational heap: used/committed/reserved spaces and the elastic
//! limits (`VirtualMax`, `YoungMax`, `OldMax`) of §4.2.
//!
//! Following the paper (and Bruno et al.), heap memory is three nested
//! spaces: *used* (live + dead objects), *committed* (allocated to the
//! JVM), and *reserved* (the static `MaxHeapSize` address range). Scaling
//! the heap means scaling committed; the elastic heap adds a dynamic
//! `VirtualMax ≤ MaxHeapSize` that the sizing algorithm must respect,
//! with `YoungMax`/`OldMax` keeping the young:old = 1:2 ratio.

use arv_cgroups::Bytes;

/// Young:old generation split — the JVM "maintains a fixed ratio of 1:2
/// between the sizes of the young and old generations".
pub const YOUNG_FRACTION: f64 = 1.0 / 3.0;

/// Static and dynamic heap size limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeapLimits {
    /// `MaxHeapSize`: the reserved space, fixed at JVM launch.
    pub reserved: Bytes,
    /// `VirtualMax`: the dynamic limit (= `reserved` for non-elastic
    /// JVMs; tracks effective memory for the elastic JVM).
    pub virtual_max: Bytes,
}

impl HeapLimits {
    /// Static limits: `VirtualMax` pinned to the reserved size.
    pub fn fixed(reserved: Bytes) -> HeapLimits {
        HeapLimits {
            reserved,
            virtual_max: reserved,
        }
    }

    /// `YoungMax`: a third of `VirtualMax` (the 1:2 ratio).
    pub fn young_max(&self) -> Bytes {
        self.virtual_max.mul_f64(YOUNG_FRACTION)
    }

    /// Nominal old-generation maximum under the 1:2 ratio. The heap's
    /// *effective* old limit is dynamic — see [`Heap::old_limit`].
    pub fn old_max(&self) -> Bytes {
        self.virtual_max - self.young_max()
    }
}

/// What a minor collection did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinorGcResult {
    /// Bytes copied (survivors) — the parallel work driver.
    pub copied: Bytes,
    /// Bytes promoted into the old generation.
    pub promoted: Bytes,
    /// The old generation overflowed its maximum: a major GC is required.
    pub needs_major: bool,
}

/// What a major collection did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MajorGcResult {
    /// Bytes scanned (live + garbage before collection).
    pub scanned: Bytes,
    /// Live data did not fit under `OldMax`: `OutOfMemoryError`.
    pub oom: bool,
}

/// The generational heap.
#[derive(Debug, Clone)]
pub struct Heap {
    limits: HeapLimits,
    young_committed: Bytes,
    old_committed: Bytes,
    /// Eden fill (includes retained survivors).
    eden_used: Bytes,
    /// Long-lived live data in the old generation.
    old_live: Bytes,
    /// Promoted-but-dead data awaiting a major collection.
    old_garbage: Bytes,
}

impl Heap {
    /// Create a heap with `initial` committed memory split 1:2.
    pub fn new(limits: HeapLimits, initial: Bytes) -> Heap {
        assert!(limits.virtual_max <= limits.reserved);
        let initial = initial.min(limits.virtual_max).max(Bytes::from_mib(4));
        let young = initial.mul_f64(YOUNG_FRACTION);
        Heap {
            limits,
            young_committed: young,
            old_committed: initial - young,
            eden_used: Bytes::ZERO,
            old_live: Bytes::ZERO,
            old_garbage: Bytes::ZERO,
        }
    }

    /// The current size limits.
    pub fn limits(&self) -> HeapLimits {
        self.limits
    }

    /// Total committed heap (charged to the cgroup).
    pub fn committed(&self) -> Bytes {
        self.young_committed + self.old_committed
    }

    /// Total used heap (eden + old generation).
    pub fn used(&self) -> Bytes {
        self.eden_used + self.old_used()
    }

    /// Old-generation occupancy (live + garbage).
    pub fn old_used(&self) -> Bytes {
        self.old_live + self.old_garbage
    }

    /// Long-lived live data in the old generation.
    pub fn old_live(&self) -> Bytes {
        self.old_live
    }

    /// Committed young-generation space (the eden capacity).
    pub fn young_committed(&self) -> Bytes {
        self.young_committed
    }

    /// Effective old-generation limit: whatever `VirtualMax` leaves after
    /// the young generation's committed space. The 1:2 ratio caps young
    /// growth (`YoungMax`), but the old generation may use all remaining
    /// headroom — HotSpot's adaptive sizing likewise lets the tenured
    /// generation outgrow `NewRatio` under promotion pressure.
    pub fn old_limit(&self) -> Bytes {
        self.limits.virtual_max.saturating_sub(self.young_committed)
    }

    /// Eden headroom before the next minor collection.
    pub fn eden_room(&self) -> Bytes {
        self.young_committed.saturating_sub(self.eden_used)
    }

    /// Pour `bytes` of fresh allocation into eden; returns the overflow
    /// that did not fit (a non-zero overflow triggers a minor GC).
    pub fn allocate(&mut self, bytes: Bytes) -> Bytes {
        let fits = bytes.min(self.eden_room());
        self.eden_used += fits;
        bytes - fits
    }

    /// Survivors of a minor collection: the survival fraction of eden,
    /// capped by the young working set (`young_live`) — with a roomier
    /// eden, objects get more time to die before being collected, so the
    /// copied volume per GC saturates (the generational hypothesis).
    pub fn minor_copied(&self, survival: f64, young_live: Bytes) -> Bytes {
        self.eden_used.mul_f64(survival).min(young_live)
    }

    /// Run a minor collection: copy `copied` survivor bytes and promote
    /// `promotion` of them into the old generation. `live_delta` of the
    /// promoted volume is long-lived (decided by the caller from the
    /// allocation profile); the remainder is medium-lived garbage awaiting
    /// the next major collection. Promotion always covers at least the
    /// live movers. Old-committed grows on demand; committed never drops
    /// below used.
    pub fn minor_gc(&mut self, copied: Bytes, promotion: f64, live_delta: Bytes) -> MinorGcResult {
        let copied = copied.min(self.eden_used);
        let live_delta = live_delta.min(copied);
        let promoted = copied.mul_f64(promotion).max(live_delta);
        let retained = copied - promoted;

        self.eden_used = retained;
        self.old_garbage += promoted - live_delta;
        self.old_live += live_delta;

        // Commit old space on demand (even past the limit — live data
        // cannot be refused mid-collection; the limit drives the
        // needs_major/OOM decisions).
        self.old_committed = self.old_committed.max(self.old_used());
        MinorGcResult {
            copied,
            promoted,
            needs_major: self.old_used() > self.old_limit(),
        }
    }

    /// Run a major collection: scan the old generation and drop garbage.
    /// Reports OOM when the live data alone exceeds the old limit even
    /// after rebalancing the generations.
    pub fn major_gc(&mut self) -> MajorGcResult {
        let scanned = self.old_used();
        self.old_garbage = Bytes::ZERO;
        if self.old_live > self.old_limit() {
            // The young generation grew early and now starves the old
            // generation: give the space back (HotSpot's adaptive sizing
            // rebalances `NewSize` under tenured-generation pressure).
            self.shrink_young_for_old();
        }
        // Committed never tracks below what is still used.
        self.old_committed = self
            .old_committed
            .min(self.old_limit().max(self.old_used()))
            .max(self.old_used());
        MajorGcResult {
            scanned,
            oom: self.old_live > self.old_limit(),
        }
    }

    /// Shrink the young generation's committed space (down to what eden
    /// still holds) so the old generation can use the freed headroom.
    fn shrink_young_for_old(&mut self) {
        let needed_by_old = self.old_live;
        let young_allowance = self
            .limits
            .virtual_max
            .saturating_sub(needed_by_old)
            .max(self.eden_used);
        self.young_committed = self.young_committed.min(young_allowance);
    }

    /// Adaptive sizing after a collection: grow the young generation by
    /// `factor` (bounded by `YoungMax`), mirroring HotSpot expanding eden
    /// while collections are frequent.
    pub fn grow_young(&mut self, factor: f64) {
        debug_assert!(factor >= 1.0);
        self.young_committed = self
            .young_committed
            .mul_f64(factor)
            .min(self.limits.young_max())
            .min(self.limits.virtual_max.saturating_sub(self.old_committed))
            .max(self.eden_used);
    }

    /// Shrink committed space down toward the current maxima (elastic
    /// case 2). Committed never drops below used.
    pub fn shrink_committed(&mut self) {
        self.young_committed = self
            .young_committed
            .min(self.limits.young_max())
            .max(self.eden_used);
        self.old_committed = self
            .old_committed
            .min(self.old_limit())
            .max(self.old_used());
    }

    /// Update `VirtualMax` (elastic heap). Returns `true` when used data
    /// now exceeds the new maxima — the caller must run collections
    /// (elastic case 3).
    pub fn set_virtual_max(&mut self, v: Bytes) -> bool {
        self.limits.virtual_max = v.min(self.limits.reserved);
        self.eden_used > self.limits.young_max() || self.old_used() > self.old_limit()
    }

    /// True when committed space overruns the current maxima (elastic
    /// case 2: red lines crossed black lines).
    pub fn committed_over_max(&self) -> bool {
        self.young_committed > self.limits.young_max() || self.old_committed > self.old_limit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap_1g() -> Heap {
        Heap::new(HeapLimits::fixed(Bytes::from_gib(1)), Bytes::from_mib(300))
    }

    #[test]
    fn limits_keep_one_to_two_ratio() {
        let l = HeapLimits::fixed(Bytes::from_mib(900));
        assert_eq!(l.young_max(), Bytes::from_mib(300));
        assert_eq!(l.old_max(), Bytes::from_mib(600));
    }

    #[test]
    fn initial_committed_split() {
        let h = heap_1g();
        assert_eq!(h.young_committed(), Bytes::from_mib(100));
        assert_eq!(h.old_committed(), Bytes::from_mib(200));
        assert_eq!(h.committed(), Bytes::from_mib(300));
        assert_eq!(h.used(), Bytes::ZERO);
    }

    #[test]
    fn allocation_fills_eden_and_overflows() {
        let mut h = heap_1g();
        assert_eq!(h.allocate(Bytes::from_mib(60)), Bytes::ZERO);
        assert_eq!(h.eden_used(), Bytes::from_mib(60));
        // 50 more only 40 fit.
        assert_eq!(h.allocate(Bytes::from_mib(50)), Bytes::from_mib(10));
        assert_eq!(h.eden_used(), Bytes::from_mib(100));
        assert_eq!(h.eden_room(), Bytes::ZERO);
    }

    #[test]
    fn minor_gc_copies_promotes_and_retains() {
        let mut h = heap_1g();
        h.allocate(Bytes::from_mib(100));
        let copied = h.minor_copied(0.2, Bytes::from_gib(1));
        let r = h.minor_gc(copied, 0.5, Bytes::from_mib(3));
        assert_eq!(r.copied, Bytes::from_mib(20));
        // 10 MiB promoted: 3 MiB of it live growth, 7 MiB garbage.
        assert_eq!(r.promoted, Bytes::from_mib(10));
        assert!(!r.needs_major);
        assert_eq!(h.eden_used(), Bytes::from_mib(10)); // retained survivors
        assert_eq!(h.old_used(), Bytes::from_mib(10));
        assert_eq!(h.old_live(), Bytes::from_mib(3));
    }

    #[test]
    fn repeated_promotion_triggers_major() {
        let mut h = Heap::new(HeapLimits::fixed(Bytes::from_mib(90)), Bytes::from_mib(90));
        let mut needs_major = false;
        for _ in 0..40 {
            h.allocate(h.eden_room());
            let copied = h.minor_copied(0.5, Bytes::from_gib(1));
            let r = h.minor_gc(copied, 0.8, Bytes::from_mib(1));
            if r.needs_major {
                needs_major = true;
                break;
            }
        }
        assert!(needs_major, "old generation should eventually overflow");
        let m = h.major_gc();
        assert!(m.scanned > Bytes::ZERO);
        assert!(!m.oom);
        assert_eq!(h.old_used(), h.old_live());
    }

    #[test]
    fn major_gc_reports_oom_when_live_exceeds_the_heap() {
        let mut h = Heap::new(HeapLimits::fixed(Bytes::from_mib(90)), Bytes::from_mib(90));
        // Promote live data until it cannot fit the whole heap, even with
        // the young generation rebalanced away.
        for _ in 0..4 {
            let filled = h.eden_room();
            h.allocate(filled);
            h.minor_gc(filled, 1.0, filled);
        }
        assert!(h.old_live() > Bytes::from_mib(90));
        let m = h.major_gc();
        assert!(m.oom);
        // Short of that point, rebalancing saves an over-live heap.
        let mut h2 = Heap::new(HeapLimits::fixed(Bytes::from_mib(90)), Bytes::from_mib(90));
        let filled = h2.eden_room();
        h2.allocate(filled);
        h2.minor_gc(filled, 1.0, filled); // 30 MiB live, fits after rebalance
        assert!(!h2.major_gc().oom);
    }

    #[test]
    fn grow_young_caps_at_young_max() {
        let mut h = heap_1g();
        for _ in 0..20 {
            h.grow_young(1.5);
        }
        assert_eq!(h.young_committed(), h.limits().young_max());
    }

    #[test]
    fn virtual_max_shrink_flags_used_overflow() {
        let mut h = heap_1g();
        h.allocate(Bytes::from_mib(90));
        // Shrink VirtualMax so YoungMax (= V/3) falls below eden_used.
        let must_gc = h.set_virtual_max(Bytes::from_mib(150));
        assert!(must_gc);
        // With a roomier VirtualMax it is fine.
        let must_gc = h.set_virtual_max(Bytes::from_mib(600));
        assert!(!must_gc);
    }

    #[test]
    fn shrink_committed_respects_used_floor() {
        let mut h = heap_1g();
        h.allocate(Bytes::from_mib(80));
        h.set_virtual_max(Bytes::from_mib(150)); // young_max = 50 < eden_used
        assert!(h.committed_over_max());
        h.shrink_committed();
        // Committed cannot go below the 80 MiB still used in eden.
        assert_eq!(h.young_committed(), Bytes::from_mib(80));
    }

    #[test]
    fn virtual_max_clamped_to_reserved() {
        let mut h = heap_1g();
        h.set_virtual_max(Bytes::from_gib(64));
        assert_eq!(h.limits().virtual_max, Bytes::from_gib(1));
    }

    #[test]
    fn committed_grows_on_demand_for_promotion() {
        let mut h = heap_1g();
        h.allocate(Bytes::from_mib(100));
        // Promote the whole eden beyond old_committed (200 MiB).
        h.minor_gc(Bytes::from_mib(100), 1.0, Bytes::from_mib(100));
        assert!(h.old_committed() >= Bytes::from_mib(100));
        assert!(h.old_committed() >= h.old_used());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Arbitrary sequences of heap operations preserve the accounting
    /// invariants: committed ≥ used, committed ≤ reserved (once settled),
    /// eden within young-committed, and live data never lost by a GC.
    #[derive(Debug, Clone)]
    enum Op {
        Alloc(u64),
        Minor {
            survival: f64,
            promotion: f64,
            live_mib: u64,
        },
        Major,
        GrowYoung,
        SetVirtualMax(u64),
        Shrink,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1u64..256).prop_map(Op::Alloc),
            (0.0f64..1.0, 0.0f64..1.0, 0u64..32).prop_map(|(survival, promotion, live_mib)| {
                Op::Minor {
                    survival,
                    promotion,
                    live_mib,
                }
            }),
            Just(Op::Major),
            Just(Op::GrowYoung),
            (64u64..2048).prop_map(Op::SetVirtualMax),
            Just(Op::Shrink),
        ]
    }

    proptest! {
        #[test]
        fn accounting_invariants_hold(ops in prop::collection::vec(op_strategy(), 1..64)) {
            let mut h = Heap::new(
                HeapLimits::fixed(Bytes::from_gib(2)),
                Bytes::from_mib(256),
            );
            for op in ops {
                match op {
                    Op::Alloc(mib) => {
                        let overflow = h.allocate(Bytes::from_mib(mib));
                        prop_assert!(overflow <= Bytes::from_mib(mib));
                    }
                    Op::Minor { survival, promotion, live_mib } => {
                        let live_before = h.old_live();
                        let copied = h.minor_copied(survival, Bytes::from_gib(64));
                        let r = h.minor_gc(copied, promotion, Bytes::from_mib(live_mib));
                        prop_assert!(r.copied <= Bytes::from_gib(2));
                        // Live data only grows at a minor collection.
                        prop_assert!(h.old_live() >= live_before);
                    }
                    Op::Major => {
                        let live = h.old_live();
                        let r = h.major_gc();
                        prop_assert!(r.scanned >= live);
                        // A major collection never destroys live data.
                        prop_assert_eq!(h.old_live(), live);
                        prop_assert_eq!(h.old_used(), live);
                    }
                    Op::GrowYoung => h.grow_young(1.5),
                    Op::SetVirtualMax(mib) => {
                        h.set_virtual_max(Bytes::from_mib(mib));
                        prop_assert!(h.limits().virtual_max <= h.limits().reserved);
                    }
                    Op::Shrink => h.shrink_committed(),
                }
                // Global invariants after every operation.
                prop_assert!(
                    h.committed() >= h.used(),
                    "committed {} < used {}",
                    h.committed(),
                    h.used()
                );
                prop_assert!(h.eden_used() <= h.young_committed());
                prop_assert!(h.old_used() <= h.old_committed());
            }
        }
    }

    impl Heap {
        /// Current eden fill.
        pub(crate) fn eden_used(&self) -> Bytes {
            self.eden_used
        }

        /// Committed old-generation space.
        pub(crate) fn old_committed(&self) -> Bytes {
            self.old_committed
        }
    }
}

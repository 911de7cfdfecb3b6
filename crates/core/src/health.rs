//! View staleness classification.
//!
//! Each host keeps one freshness word: the update-timer tick at which
//! its monitor last brought every view level. A view's age is the
//! current tick minus that word, and [`ViewHealth::from_age`] turns it
//! into a health: `Fresh` while the monitor is keeping up, `Stale` once
//! an update has been missed, and `Degraded` past [`STALENESS_BUDGET`] —
//! at which point the serving layer stops forwarding the (possibly
//! wrong) adaptive view and falls back to the paper's own safe resets:
//! effective CPU clamped to Algorithm 1's lower bound and effective
//! memory reset to the soft limit. Both are values the container is
//! entitled to under any interleaving, so a consumer sized against a
//! degraded view can never over-provision.
//!
//! Orthogonal to staleness, a view carries a [`Durability`] dimension:
//! whether the journal behind it is reaching stable storage. A view can
//! be perfectly Fresh while its host's store refuses journal writes —
//! the values served are correct, but a crash right now would lose
//! everything since the last synced record, and fleet operators must
//! see that.

/// How many update-timer ticks (CFS periods) a view may age and still
/// be served as-is; ages strictly greater degrade. 4 periods (~96 ms at
/// the paper's 24 ms period) ride out scheduling hiccups, yet consumers
/// never act on a view a whole second old.
pub const STALENESS_BUDGET: u64 = 4;

/// Health of a served view, judged by its age in update-timer ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewHealth {
    /// The view reflects the latest (or previous) update period.
    Fresh,
    /// Updates have been missed, but the view is within the staleness
    /// budget and is still served as-is.
    Stale {
        /// Ticks since the view was last refreshed.
        age: u64,
    },
    /// The view aged past the staleness budget; the conservative
    /// fallback view is served instead.
    Degraded {
        /// Ticks since the view was last refreshed.
        age: u64,
    },
}

impl ViewHealth {
    /// The health of a view `age` ticks old.
    ///
    /// Age 0 or 1 is `Fresh` — a view stamped last tick is simply the
    /// normal cadence, not a missed deadline.
    pub fn from_age(age: u64) -> ViewHealth {
        if age <= 1 {
            ViewHealth::Fresh
        } else if age <= STALENESS_BUDGET {
            ViewHealth::Stale { age }
        } else {
            ViewHealth::Degraded { age }
        }
    }

    /// Ticks since the last refresh (0 when fresh).
    pub fn age(&self) -> u64 {
        match *self {
            ViewHealth::Fresh => 0,
            ViewHealth::Stale { age } | ViewHealth::Degraded { age } => age,
        }
    }

    /// Whether the fallback view is being served.
    pub fn is_degraded(&self) -> bool {
        matches!(self, ViewHealth::Degraded { .. })
    }

    /// Whether the view is current.
    pub fn is_fresh(&self) -> bool {
        matches!(self, ViewHealth::Fresh)
    }
}

/// The durability dimension of a served view: whether the state behind
/// it is reaching stable storage. Orthogonal to [`ViewHealth`] — a
/// Fresh view with [`Durability::Lost`] serves correct values that a
/// crash would forget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Durability {
    /// Journal appends are reaching stable storage.
    #[default]
    Durable,
    /// A store write or sync failed: what the journal holds since its
    /// last synced record would not survive a crash, until a clean
    /// re-checkpoint to the store heals the flag.
    Lost,
}

impl Durability {
    /// Whether journal durability is currently lost.
    pub fn is_lost(self) -> bool {
        matches!(self, Durability::Lost)
    }

    /// Fold a second opinion in: durability across a set of journals
    /// (host + shadow, or a whole fleet) is lost if any member's is.
    pub fn merge(self, other: Durability) -> Durability {
        if self.is_lost() || other.is_lost() {
            Durability::Lost
        } else {
            Durability::Durable
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_brackets() {
        assert_eq!(ViewHealth::from_age(0), ViewHealth::Fresh);
        assert_eq!(ViewHealth::from_age(1), ViewHealth::Fresh);
        assert_eq!(ViewHealth::from_age(2), ViewHealth::Stale { age: 2 });
        assert_eq!(ViewHealth::from_age(4), ViewHealth::Stale { age: 4 });
        assert_eq!(ViewHealth::from_age(5), ViewHealth::Degraded { age: 5 });
        assert_eq!(
            ViewHealth::from_age(1000),
            ViewHealth::Degraded { age: 1000 }
        );
    }

    #[test]
    fn helpers_agree_with_variant() {
        let (stale, degraded) = (STALENESS_BUDGET, STALENESS_BUDGET + 1);
        assert!(ViewHealth::from_age(1).is_fresh());
        assert!(!ViewHealth::from_age(stale).is_fresh());
        assert!(!ViewHealth::from_age(stale).is_degraded());
        assert!(!ViewHealth::from_age(degraded).is_fresh());
        assert!(ViewHealth::from_age(degraded).is_degraded());
        assert_eq!(ViewHealth::from_age(stale).age(), stale);
        assert_eq!(ViewHealth::from_age(degraded).age(), degraded);
        assert_eq!(ViewHealth::from_age(0).age(), 0);
    }

    #[test]
    fn durability_merges_pessimistically() {
        assert_eq!(Durability::default(), Durability::Durable);
        assert!(!Durability::Durable.is_lost());
        assert!(Durability::Lost.is_lost());
        assert_eq!(
            Durability::Durable.merge(Durability::Durable),
            Durability::Durable
        );
        assert_eq!(
            Durability::Durable.merge(Durability::Lost),
            Durability::Lost
        );
        assert_eq!(
            Durability::Lost.merge(Durability::Durable),
            Durability::Lost
        );
    }
}

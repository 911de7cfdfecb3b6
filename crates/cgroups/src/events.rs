//! Bounded, sequence-numbered event delivery.
//!
//! The seed implementation handed `ns_monitor` an unbounded `Vec` of
//! [`CgroupEvent`]s drained atomically — loss was impossible but so was
//! backpressure, and a stalled monitor grew the log without limit. The
//! [`EventPipe`] models the real-world channel instead: a bounded queue
//! that coalesces on overflow by dropping the *oldest* events (newer
//! state wins), with every event stamped with a monotonically increasing
//! sequence number. Consumers detect loss — whether from overflow here
//! or from fault injection in between — as a gap in the sequence and
//! trigger a resync instead of silently serving a wrong view.

use crate::manager::CgroupEvent;
use std::collections::VecDeque;

/// A [`CgroupEvent`] stamped with its position in the event stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeqEvent {
    /// Monotonic sequence number, starting at 0 for the first event.
    pub seq: u64,
    /// The underlying cgroup change.
    pub event: CgroupEvent,
}

/// Default capacity of an [`EventPipe`].
pub const DEFAULT_PIPE_CAPACITY: usize = 64;

/// A bounded queue of sequence-numbered cgroup events.
#[derive(Debug)]
pub struct EventPipe {
    queue: VecDeque<SeqEvent>,
    capacity: usize,
    next_seq: u64,
    overflow_dropped: u64,
}

impl Default for EventPipe {
    fn default() -> EventPipe {
        EventPipe::new(DEFAULT_PIPE_CAPACITY)
    }
}

impl EventPipe {
    /// A pipe holding at most `capacity` undelivered events.
    pub fn new(capacity: usize) -> EventPipe {
        EventPipe {
            queue: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            next_seq: 0,
            overflow_dropped: 0,
        }
    }

    /// Enqueue one event, numbering it. On overflow the *oldest* queued
    /// event is discarded (the consumer will see the gap and resync).
    pub fn push(&mut self, event: CgroupEvent) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.queue.len() == self.capacity {
            self.queue.pop_front();
            self.overflow_dropped += 1;
        }
        self.queue.push_back(SeqEvent { seq, event });
        seq
    }

    /// Take every queued event, in arrival order.
    pub fn drain(&mut self) -> Vec<SeqEvent> {
        self.queue.drain(..).collect()
    }

    /// The sequence number the next pushed event will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Take (and reset) the count of events lost to overflow.
    pub fn take_overflow_dropped(&mut self) -> u64 {
        std::mem::take(&mut self.overflow_dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::CgroupId;

    fn ev(i: u32) -> CgroupEvent {
        CgroupEvent::Updated(CgroupId(i))
    }

    #[test]
    fn events_are_numbered_in_order() {
        let mut pipe = EventPipe::new(8);
        for i in 0..5 {
            assert_eq!(pipe.push(ev(i)), u64::from(i));
        }
        let drained = pipe.drain();
        assert_eq!(drained.len(), 5);
        for (i, e) in drained.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.event, ev(i as u32));
        }
        assert!(pipe.is_empty());
        assert_eq!(pipe.take_overflow_dropped(), 0);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let mut pipe = EventPipe::new(4);
        for i in 0..10 {
            pipe.push(ev(i));
        }
        assert_eq!(pipe.len(), 4);
        let drained = pipe.drain();
        // Oldest six were coalesced away; the survivors are the newest
        // four with their original sequence numbers intact.
        assert_eq!(
            drained.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert_eq!(pipe.take_overflow_dropped(), 6);
        // Counter resets after being taken.
        assert_eq!(pipe.take_overflow_dropped(), 0);
    }

    #[test]
    fn sequence_numbers_survive_drains() {
        let mut pipe = EventPipe::new(8);
        pipe.push(ev(0));
        pipe.drain();
        assert_eq!(pipe.push(ev(1)), 1);
        assert_eq!(pipe.next_seq(), 2);
    }

    #[test]
    fn capacity_is_at_least_one() {
        let mut pipe = EventPipe::new(0);
        pipe.push(ev(0));
        pipe.push(ev(1));
        assert_eq!(pipe.len(), 1);
        assert_eq!(pipe.drain()[0].seq, 1);
        assert_eq!(pipe.take_overflow_dropped(), 1);
    }

    impl EventPipe {
        /// Events currently queued.
        fn len(&self) -> usize {
            self.queue.len()
        }

        /// Whether the queue is empty.
        fn is_empty(&self) -> bool {
            self.queue.is_empty()
        }
    }
}

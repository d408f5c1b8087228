//! A deterministic discrete-event calendar.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, E)` pairs ordered by
//! time, with ties broken by insertion order. The FIFO tie-break is what
//! makes simulations reproducible: two events scheduled for the same instant
//! always pop in the order they were pushed, regardless of the payload type.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A pending event: when it fires and what it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// The instant the event fires.
    pub at: SimTime,
    /// Monotonic insertion sequence number; breaks same-instant ties.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

struct HeapEntry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

// BinaryHeap is a max-heap; invert the ordering to pop earliest-first,
// and earliest-inserted-first within an instant.
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for HeapEntry<E> {}

/// A deterministic event calendar for discrete-event simulation.
///
/// Events pop in non-decreasing time order; events scheduled for the same
/// instant pop in insertion order.
///
/// # Examples
///
/// ```
/// use dimetrodon_sim_core::{EventQueue, SimTime};
///
/// let mut queue = EventQueue::new();
/// queue.push(SimTime::from_millis(20), "later");
/// queue.push(SimTime::from_millis(10), "sooner");
/// queue.push(SimTime::from_millis(10), "sooner, but second");
///
/// assert_eq!(queue.pop().map(|s| s.event), Some("sooner"));
/// assert_eq!(queue.pop().map(|s| s.event), Some("sooner, but second"));
/// assert_eq!(queue.pop().map(|s| s.event), Some("later"));
/// assert!(queue.pop().is_none());
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
    last_popped: Option<SimTime>,
}

impl<E> EventQueue<E> {
    /// Creates an empty calendar.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: None,
        }
    }

    /// Creates an empty calendar with room for `capacity` pending events,
    /// so steady-state simulations never reallocate the heap.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            last_popped: None,
        }
    }

    /// Schedules `event` to fire at `at`, returning its sequence number.
    ///
    /// Scheduling an event earlier than the last popped instant is a logic
    /// error in the caller (the past is immutable in a discrete-event
    /// simulation).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the time of the last popped event.
    pub fn push(&mut self, at: SimTime, event: E) -> u64 {
        if let Some(now) = self.last_popped {
            assert!(
                at >= now,
                "scheduled an event at {at} in the past (now = {now})"
            );
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { at, seq, event });
        seq
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let entry = self.heap.pop()?;
        debug_assert!(
            self.last_popped
                .is_none_or(|watermark| entry.at >= watermark),
            "event queue popped {} before the {:?} watermark: timestamps must be monotone",
            entry.at,
            self.last_popped
        );
        self.last_popped = Some(entry.at);
        Some(Scheduled {
            at: entry.at,
            seq: entry.seq,
            event: entry.event,
        })
    }

    /// Removes and returns the earliest pending event if it fires at or
    /// before `deadline`.
    ///
    /// This is the event-loop primitive: it fuses the peek-then-pop pair so
    /// callers never need to re-assert that the peeked event still exists.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<Scheduled<E>> {
        if self.heap.peek().is_some_and(|e| e.at <= deadline) {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events but keeps the clock watermark, so that
    /// subsequent pushes are still checked against the last popped instant.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E: std::fmt::Debug> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("next_seq", &self.next_seq)
            .field("last_popped", &self.last_popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(3), 3u32);
        q.push(SimTime::from_millis(1), 1);
        q.push(SimTime::from_millis(2), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(SimTime::from_millis(5), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), ());
        q.pop();
        q.push(SimTime::from_millis(5), ());
    }

    #[test]
    fn clear_keeps_watermark() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), ());
        q.pop();
        q.push(SimTime::from_millis(20), ());
        q.clear();
        assert!(q.is_empty());
        // Still cannot schedule before the watermark.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.push(SimTime::from_millis(5), ());
        }));
        assert!(result.is_err());
    }

    #[test]
    fn len_tracks_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_millis(1), ());
        q.push(SimTime::from_millis(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    proptest! {
        /// Any batch of events pops in sorted order by (time, insertion seq).
        #[test]
        fn prop_pop_order_is_sorted(times in prop::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(t), i);
            }
            let mut popped = Vec::new();
            while let Some(s) = q.pop() {
                popped.push((s.at, s.seq));
            }
            let mut sorted = popped.clone();
            sorted.sort();
            prop_assert_eq!(popped, sorted);
        }

        /// Every pushed event is popped exactly once.
        #[test]
        fn prop_no_events_lost(times in prop::collection::vec(0u64..1_000, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(t), i);
            }
            let mut seen: Vec<usize> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
        }
    }
}

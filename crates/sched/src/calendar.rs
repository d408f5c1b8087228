//! The scheduler's event calendar.
//!
//! A core is always in exactly one activity — a thread's slice or burst,
//! a context switch, or an injected idle quantum (§3.1) — so it has at
//! most one pending end, and the periodic sample and tick have one each.
//! Those sit in fixed slots; only thread wakeups, at most one per
//! sleeping thread, need a heap. Events pop by (time, insertion
//! sequence): same-instant events pop in the order they were pushed,
//! which is what makes a run reproducible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dimetrodon_sim_core::SimTime;

use crate::thread::ThreadId;

/// What ends a core's current activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CoreEventKind {
    SwitchDone,
    SliceEnd,
    BurstEnd,
    InjectedIdleEnd,
}

/// A scheduler event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// The end of core `core`'s current activity.
    Core {
        core: usize,
        kind: CoreEventKind,
    },
    Wakeup(ThreadId),
    Sample,
    Tick,
}

/// Pending events, popped earliest first.
#[derive(Debug)]
pub(crate) struct Calendar {
    /// `(at, seq, event)`: core `i`'s plan in slot `i`, then the next
    /// `Sample`, then the next `Tick`.
    slots: Vec<Option<(SimTime, u64, Event)>>,
    /// `(at, seq, thread)` of every sleeping thread's wakeup.
    wakeups: BinaryHeap<Reverse<(SimTime, u64, ThreadId)>>,
    next_seq: u64,
    /// When the last popped event fired; nothing may be pushed before it.
    now: SimTime,
}

impl Calendar {
    /// An empty calendar for a machine of `cores` cores.
    pub(crate) fn new(cores: usize) -> Self {
        Calendar {
            slots: vec![None; cores + 2],
            wakeups: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedules `event` to fire at `at`. A core, the sample and the tick
    /// each have at most one event pending (checked by a `debug_assert!`).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last popped event.
    pub(crate) fn push(&mut self, at: SimTime, event: Event) {
        assert!(
            at >= self.now,
            "scheduled an event at {at} in the past (now = {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match event {
            Event::Core { core, .. } => core,
            Event::Sample => self.slots.len() - 2,
            Event::Tick => self.slots.len() - 1,
            Event::Wakeup(thread) => {
                self.wakeups.push(Reverse((at, seq, thread)));
                return;
            }
        };
        debug_assert!(
            self.slots[slot].is_none(),
            "{event:?} at {at} pushed while {:?} is pending",
            self.slots[slot]
        );
        self.slots[slot] = Some((at, seq, event));
    }

    /// Removes and returns the earliest pending event if it fires at or
    /// before `deadline`.
    pub(crate) fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, Event)> {
        let wakeup = self
            .wakeups
            .peek()
            .map(|&Reverse((at, seq, _))| (at, seq, self.slots.len()));
        let (at, _, index) = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| slot.map(|(at, seq, _)| (at, seq, index)))
            .chain(wakeup)
            .min()?;
        if at > deadline {
            return None;
        }
        debug_assert!(
            at >= self.now,
            "calendar popped {at} after {}: timestamps must be monotone",
            self.now
        );
        self.now = at;
        let event = match self.slots.get_mut(index) {
            Some(slot) => slot.take()?.2,
            None => {
                let Reverse((_, _, thread)) = self.wakeups.pop()?;
                Event::Wakeup(thread)
            }
        };
        Some((at, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimetrodon_sim_core::SimDuration;
    use proptest::prelude::*;

    const CORES: usize = 4;

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut calendar = Calendar::new(CORES);
        calendar.push(SimTime::from_millis(10), Event::Sample);
        calendar.pop_at_or_before(SimTime::MAX);
        calendar.push(SimTime::from_millis(5), Event::Tick);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "is pending")]
    fn a_core_holds_one_plan() {
        let mut calendar = Calendar::new(CORES);
        let plan = |kind| Event::Core { core: 1, kind };
        calendar.push(SimTime::from_millis(1), plan(CoreEventKind::SwitchDone));
        calendar.push(SimTime::from_millis(2), plan(CoreEventKind::SliceEnd));
    }

    proptest! {
        /// Core plans, sample and tick reschedules and wakeups, pushed and
        /// popped in any interleaving, pop in (time, insertion) order: each
        /// pop takes the earliest pending event if it is due by the
        /// deadline, and none is lost. As in the scheduler, a core, the
        /// sample or the tick is pushed again only once its event popped.
        #[test]
        fn prop_pops_in_time_then_insertion_order(
            ops in prop::collection::vec(
                (0usize..3, 0u64..40, 0u64..40, 0usize..CORES + 3),
                1..300,
            ),
        ) {
            let mut calendar = Calendar::new(CORES);
            let (mut pending, mut pushed, mut popped) = (Vec::new(), Vec::new(), Vec::new());
            let mut now = SimTime::ZERO;
            let mut sleepers = 0;
            for (pops, horizon, delay, target) in ops {
                let deadline = now + SimDuration::from_nanos(horizon);
                for _ in 0..pops {
                    let due = pending
                        .iter()
                        .map(|&(at, _)| at)
                        .min()
                        .filter(|&at| at <= deadline);
                    let entry = calendar.pop_at_or_before(deadline);
                    prop_assert_eq!(entry.map(|(at, _)| at), due);
                    let Some((at, event)) = entry else { break };
                    pending.retain(|&(_, e)| e != event);
                    now = at;
                    popped.push((at, event));
                }
                let event = match target {
                    core if core < CORES => Event::Core {
                        core,
                        kind: CoreEventKind::BurstEnd,
                    },
                    CORES => Event::Sample,
                    target if target == CORES + 1 => Event::Tick,
                    _ => {
                        sleepers += 1;
                        Event::Wakeup(ThreadId(sleepers))
                    }
                };
                if pending.iter().any(|&(_, e)| e == event) {
                    continue; // its slot is taken
                }
                let at = now + SimDuration::from_nanos(delay);
                calendar.push(at, event);
                pending.push((at, event));
                pushed.push((at, event));
            }
            while let Some(entry) = calendar.pop_at_or_before(SimTime::MAX) {
                popped.push(entry);
            }
            // Nothing is pushed before the last pop, so (time, insertion)
            // order is the push order stably sorted by time.
            pushed.sort_by_key(|&(at, _)| at);
            prop_assert_eq!(popped, pushed);
        }
    }
}

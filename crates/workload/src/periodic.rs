//! The periodic "cool" process of the per-thread control demonstration.
//!
//! §3.6 runs "a loop that executed cpuburn for six seconds, slept for one
//! minute, and repeated" alongside a hot CPU-bound application, and shows
//! that per-thread policies spare the cool process the throughput cost of
//! cooling the hot one. [`PeriodicBurn`] is that loop; its completed-cycle
//! count (readable through the shared [`CycleCounter`] while the
//! simulation owns the body) is the throughput measure of Figure 5.

use std::cell::Cell;
use std::rc::Rc;

use dimetrodon_sched::{Action, Burst, ThreadBody};
use dimetrodon_sim_core::{SimDuration, SimTime};

/// Shared read handle onto a [`PeriodicBurn`]'s progress.
#[derive(Debug, Clone, Default)]
pub struct CycleCounter {
    completed: Rc<Cell<u64>>,
    active_wall_secs: Rc<Cell<f64>>,
}

impl CycleCounter {
    /// Cycles (work + sleep periods) completed so far.
    pub fn completed(&self) -> u64 {
        self.completed.get()
    }

    /// Total wall-clock time spent in completed work phases, seconds.
    pub fn active_wall_secs(&self) -> f64 {
        self.active_wall_secs.get()
    }

    /// Mean wall-clock duration of a completed work phase, seconds — the
    /// Figure 5 throughput denominator (`work / mean_cycle_wall` is the
    /// process's relative throughput). `None` before the first completed
    /// cycle.
    pub fn mean_cycle_wall_secs(&self) -> Option<f64> {
        let n = self.completed.get();
        if n == 0 {
            None
        } else {
            Some(self.active_wall_secs.get() / n as f64)
        }
    }

    /// Zeroes the counters, discarding cycles completed so far. Used to
    /// exclude warm-up cycles (e.g. the cold-start cycle before scheduler
    /// priorities reach equilibrium) from a measurement.
    pub fn reset(&self) {
        self.completed.set(0);
        self.active_wall_secs.set(0.0);
    }
}

/// A periodic work/sleep loop: `work` of CPU at a given activity, then
/// `sleep`, repeated forever.
///
/// # Examples
///
/// The paper's cool process:
///
/// ```
/// use dimetrodon_workload::PeriodicBurn;
/// use dimetrodon_sim_core::SimDuration;
///
/// let (body, cycles) = PeriodicBurn::new(
///     SimDuration::from_secs(6),
///     SimDuration::from_secs(60),
///     1.0,
/// );
/// assert_eq!(cycles.completed(), 0);
/// # let _ = body;
/// ```
#[derive(Debug)]
pub struct PeriodicBurn {
    work: SimDuration,
    sleep: SimDuration,
    activity: f64,
    burst: SimDuration,
    remaining_in_cycle: SimDuration,
    cycle_started_at: Option<SimTime>,
    cycles: CycleCounter,
}

impl PeriodicBurn {
    /// Creates the loop and a counter handle for its completed cycles.
    ///
    /// # Panics
    ///
    /// Panics if `work` or `sleep` is zero, or `activity` is outside
    /// `[0, 1]`.
    pub fn new(work: SimDuration, sleep: SimDuration, activity: f64) -> (Self, CycleCounter) {
        assert!(!work.is_zero(), "work period must be positive");
        assert!(!sleep.is_zero(), "sleep period must be positive");
        assert!((0.0..=1.0).contains(&activity), "activity must be in [0, 1]");
        let cycles = CycleCounter::default();
        (
            PeriodicBurn {
                work,
                sleep,
                activity,
                burst: SimDuration::from_millis(10),
                remaining_in_cycle: work,
                cycle_started_at: None,
                cycles: cycles.clone(),
            },
            cycles.clone(),
        )
    }

    /// The paper's cool process: 6 s of cpuburn, 60 s of sleep.
    pub fn paper_cool_process() -> (Self, CycleCounter) {
        Self::new(SimDuration::from_secs(6), SimDuration::from_secs(60), 1.0)
    }
}

impl ThreadBody for PeriodicBurn {
    fn next_action(&mut self, now: SimTime) -> Action {
        if self.remaining_in_cycle.is_zero() {
            // Work phase done: count the cycle, record its wall time, and
            // sleep.
            self.cycles.completed.set(self.cycles.completed.get() + 1);
            if let Some(started) = self.cycle_started_at.take() {
                let wall = now.saturating_since(started).as_secs_f64();
                self.cycles
                    .active_wall_secs
                    .set(self.cycles.active_wall_secs.get() + wall);
            }
            self.remaining_in_cycle = self.work;
            return Action::Sleep(self.sleep);
        }
        if self.cycle_started_at.is_none() {
            self.cycle_started_at = Some(now);
        }
        let chunk = self.remaining_in_cycle.min(self.burst);
        self.remaining_in_cycle -= chunk;
        Action::Run(Burst::new(chunk, self.activity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_counting() {
        let (mut body, cycles) = PeriodicBurn::new(
            SimDuration::from_millis(20),
            SimDuration::from_secs(1),
            0.8,
        );
        // Two 10 ms bursts then a sleep = one cycle.
        assert!(matches!(body.next_action(SimTime::ZERO), Action::Run(_)));
        assert!(matches!(body.next_action(SimTime::ZERO), Action::Run(_)));
        assert_eq!(cycles.completed(), 0);
        assert!(matches!(body.next_action(SimTime::ZERO), Action::Sleep(_)));
        assert_eq!(cycles.completed(), 1);
        // And the loop repeats.
        assert!(matches!(body.next_action(SimTime::ZERO), Action::Run(_)));
    }

    #[test]
    fn paper_cool_process_shape() {
        let (mut body, _cycles) = PeriodicBurn::paper_cool_process();
        let mut work = SimDuration::ZERO;
        loop {
            match body.next_action(SimTime::ZERO) {
                Action::Run(b) => {
                    assert_eq!(b.activity, 1.0);
                    work += b.cpu_time;
                }
                Action::Sleep(d) => {
                    assert_eq!(d, SimDuration::from_secs(60));
                    break;
                }
                Action::Exit => panic!("never exits"),
            }
        }
        assert_eq!(work, SimDuration::from_secs(6));
    }

    #[test]
    #[should_panic(expected = "sleep period must be positive")]
    fn zero_sleep_panics() {
        PeriodicBurn::new(SimDuration::from_secs(1), SimDuration::ZERO, 1.0);
    }
}

//! Threads: identity, behaviour, and accounting.
//!
//! A thread's behaviour is a [`ThreadBody`]: a state machine that, each
//! time it is consulted, yields its next [`Action`] — run a CPU burst,
//! sleep, or exit. The scheduler executes bursts in timeslice-sized pieces
//! and consults the body again when a burst completes. Workload crates
//! implement `ThreadBody` for cpuburn, SPEC-like profiles, web-server
//! connections, and so on.

use std::fmt;

use dimetrodon_sim_core::{SimDuration, SimTime};

/// Identifies a thread within a [`System`](crate::System).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u64);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tid{}", self.0)
    }
}

/// Whether a thread runs in kernel or user context.
///
/// The distinction matters to injection policy: the paper's implementation
/// "always schedules kernel-level threads" (§3.1) because delaying, say,
/// a network-interrupt thread would delay request processing twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadKind {
    /// An ordinary user thread — eligible for idle-cycle injection.
    User,
    /// A kernel thread — by default exempt from injection.
    Kernel,
}

/// A CPU burst: nominal CPU time at full machine speed, with the switching
/// activity the code exercises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// CPU time required at the fastest P-state with no clock modulation.
    pub cpu_time: SimDuration,
    /// Activity factor in `[0, 1]` (see
    /// [`Activity`](dimetrodon_power::Activity)).
    pub activity: f64,
}

impl Burst {
    /// Creates a burst.
    ///
    /// # Panics
    ///
    /// Panics if `cpu_time` is zero or `activity` is outside `[0, 1]`.
    pub fn new(cpu_time: SimDuration, activity: f64) -> Self {
        assert!(!cpu_time.is_zero(), "burst must have positive CPU time");
        assert!(
            (0.0..=1.0).contains(&activity),
            "activity must be in [0, 1], got {activity}"
        );
        Burst { cpu_time, activity }
    }
}

/// What a thread does next, as reported by its [`ThreadBody`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Execute a CPU burst.
    Run(Burst),
    /// Block for a duration (I/O wait, timer, think time).
    Sleep(SimDuration),
    /// Terminate.
    Exit,
}

/// The behaviour of a thread.
///
/// The system calls [`next_action`](ThreadBody::next_action) when the
/// thread is spawned, when a burst completes, and when a sleep expires —
/// always at the simulated instant `now`, which lets bodies measure
/// latencies (e.g. a web connection computing response time as `now` minus
/// the instant its request was issued).
pub trait ThreadBody: fmt::Debug {
    /// The thread's next action. `now` is the current simulated time.
    fn next_action(&mut self, now: SimTime) -> Action;
}

/// Per-thread accounting maintained by the system.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadStats {
    /// Nominal CPU time executed (progress at full speed), excluding
    /// context-switch and resume overheads.
    pub cpu_executed: SimDuration,
    /// Number of times the thread was dispatched onto a core (the paper's
    /// `S`, the number of scheduling quanta).
    pub scheduled_count: u64,
    /// Number of completed [`Action::Run`] bursts.
    pub bursts_completed: u64,
    /// Idle quanta injected in place of this thread.
    pub injected_idles: u64,
    /// Total injected idle time attributed to this thread.
    pub injected_idle_time: SimDuration,
    /// When the thread was spawned.
    pub spawned_at: SimTime,
    /// When the thread exited, if it has.
    pub exited_at: Option<SimTime>,
}

impl ThreadStats {
    /// Wall-clock runtime from spawn to exit, if exited.
    pub fn wall_time(&self) -> Option<SimDuration> {
        self.exited_at.map(|end| end - self.spawned_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_validation() {
        let b = Burst::new(SimDuration::from_millis(10), 0.8);
        assert_eq!(b.cpu_time, SimDuration::from_millis(10));
        assert_eq!(b.activity, 0.8);
    }

    #[test]
    #[should_panic(expected = "positive CPU time")]
    fn zero_burst_panics() {
        Burst::new(SimDuration::ZERO, 0.5);
    }

    #[test]
    #[should_panic(expected = "activity must be in [0, 1]")]
    fn bad_activity_panics() {
        Burst::new(SimDuration::from_millis(1), -0.1);
    }

    #[test]
    fn stats_wall_time() {
        let mut s = ThreadStats {
            spawned_at: SimTime::from_secs(1),
            ..ThreadStats::default()
        };
        assert_eq!(s.wall_time(), None);
        s.exited_at = Some(SimTime::from_secs(5));
        assert_eq!(s.wall_time(), Some(SimDuration::from_secs(4)));
    }

    #[test]
    fn thread_id_display() {
        assert_eq!(ThreadId(3).to_string(), "tid3");
    }
}

//! Runqueue policies: the 4.4BSD multi-level feedback queue the paper
//! modified, and a ULE-lite per-CPU variant for footnote 2's "the mechanism
//! generalises to ULE and other schedulers".

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use dimetrodon_machine::CoreId;
use dimetrodon_sim_core::SimDuration;

use crate::thread::{ThreadId, ThreadKind};

/// A runqueue policy: decides which runnable thread a core runs next.
///
/// The [`System`](crate::System) owns thread state; the scheduler only
/// tracks runnable membership and its own priority bookkeeping. Methods are
/// notifications from the system.
pub trait Scheduler: fmt::Debug {
    /// A thread came into existence.
    fn on_spawn(&mut self, id: ThreadId, kind: ThreadKind);
    /// A thread exited (it is guaranteed not runnable at this point).
    fn on_exit(&mut self, id: ThreadId);
    /// A thread became runnable. `last_core` is where it last ran, for
    /// affinity-aware policies.
    fn enqueue(&mut self, id: ThreadId, last_core: Option<CoreId>);
    /// Removes and returns the thread `core` should run next.
    fn pick(&mut self, core: CoreId) -> Option<ThreadId>;
    /// Charges `ran` of CPU time to a thread (priority decay input).
    fn charge(&mut self, id: ThreadId, ran: SimDuration);
    /// Periodic decay of recent-CPU estimates (called about once per
    /// simulated second).
    fn decay(&mut self);
    /// The scheduling quantum.
    fn timeslice(&self) -> SimDuration;
    /// Number of currently runnable (queued) threads.
    fn runnable_count(&self) -> usize;
}

/// The 4.4BSD scheduler: a global multi-level feedback queue with a fixed
/// 100 ms timeslice (the FreeBSD 7.x default the paper modified, §3.1).
///
/// Priorities derive from an exponentially decayed estimate of recent CPU
/// use (`estcpu`), so CPU hogs sink and interactive threads rise; kernel
/// threads occupy a strictly higher-priority band than user threads.
///
/// # Examples
///
/// ```
/// use dimetrodon_sched::{BsdScheduler, Scheduler, ThreadId, ThreadKind};
/// use dimetrodon_machine::CoreId;
///
/// let mut sched = BsdScheduler::new();
/// sched.on_spawn(ThreadId(1), ThreadKind::User);
/// sched.on_spawn(ThreadId(2), ThreadKind::Kernel);
/// sched.enqueue(ThreadId(1), None);
/// sched.enqueue(ThreadId(2), None);
/// // The kernel thread outranks the user thread.
/// assert_eq!(sched.pick(CoreId(0)), Some(ThreadId(2)));
/// ```
#[derive(Debug, Clone)]
pub struct BsdScheduler {
    timeslice: SimDuration,
    meta: BTreeMap<ThreadId, BsdEntity>,
    /// Priority band -> FIFO of runnable threads. Lower band runs first.
    queues: BTreeMap<u32, VecDeque<ThreadId>>,
    runnable: usize,
}

#[derive(Debug, Clone, Copy)]
struct BsdEntity {
    kind: ThreadKind,
    /// Decayed recent CPU use, in seconds.
    estcpu: f64,
}

impl BsdEntity {
    fn band(&self) -> u32 {
        let base = match self.kind {
            ThreadKind::Kernel => 10,
            ThreadKind::User => 50,
        };
        // Two priority steps per second of recent CPU, saturating the way
        // ESTCPULIM caps the real scheduler: long-running CPU hogs and
        // threads a few seconds into a burst land in the same band and
        // round-robin, while freshly woken threads briefly outrank both.
        base + ((self.estcpu * 2.0) as u32).min(20)
    }
}

impl BsdScheduler {
    /// The FreeBSD 4.4BSD scheduler's fixed timeslice.
    pub const TIMESLICE: SimDuration = SimDuration::from_millis(100);

    /// Creates the scheduler with the paper's 100 ms timeslice.
    pub fn new() -> Self {
        Self::with_timeslice(Self::TIMESLICE)
    }

    /// Creates the scheduler with a custom timeslice (for sensitivity
    /// studies).
    ///
    /// # Panics
    ///
    /// Panics if `timeslice` is zero.
    pub fn with_timeslice(timeslice: SimDuration) -> Self {
        assert!(!timeslice.is_zero(), "timeslice must be positive");
        BsdScheduler {
            timeslice,
            meta: BTreeMap::new(),
            queues: BTreeMap::new(),
            runnable: 0,
        }
    }
}

impl Default for BsdScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for BsdScheduler {
    fn on_spawn(&mut self, id: ThreadId, kind: ThreadKind) {
        self.meta.insert(id, BsdEntity { kind, estcpu: 0.0 });
    }

    fn on_exit(&mut self, id: ThreadId) {
        self.meta.remove(&id);
    }

    fn enqueue(&mut self, id: ThreadId, _last_core: Option<CoreId>) {
        #[expect(
            clippy::expect_used,
            reason = "enqueueing a never-spawned thread is a System logic error"
        )]
        let entity = self.meta.get(&id).expect("enqueue of unknown thread");
        self.queues.entry(entity.band()).or_default().push_back(id);
        self.runnable += 1;
    }

    fn pick(&mut self, _core: CoreId) -> Option<ThreadId> {
        let (&band, queue) = self.queues.iter_mut().find(|(_, q)| !q.is_empty())?;
        let id = queue.pop_front();
        if queue.is_empty() {
            self.queues.remove(&band);
        }
        if id.is_some() {
            self.runnable -= 1;
        }
        id
    }

    fn charge(&mut self, id: ThreadId, ran: SimDuration) {
        if let Some(entity) = self.meta.get_mut(&id) {
            entity.estcpu += ran.as_secs_f64();
        }
    }

    fn decay(&mut self) {
        // The classic (2*load)/(2*load+1) filter at the loads these
        // experiments run (several runnable threads): a slow decay, so
        // recent-CPU estimates persist across a multi-second burst.
        for entity in self.meta.values_mut() {
            entity.estcpu *= 0.97;
        }
    }

    fn timeslice(&self) -> SimDuration {
        self.timeslice
    }

    fn runnable_count(&self) -> usize {
        self.runnable
    }
}

/// A ULE-lite scheduler: per-CPU runqueues with idle-time work stealing
/// and a shorter timeslice, standing in for FreeBSD's ULE (footnote 2).
///
/// Deliberately simplified: no interactivity scoring, two static bands
/// (kernel above user), FIFO within a band.
#[derive(Debug, Clone)]
pub struct UleScheduler {
    timeslice: SimDuration,
    kinds: BTreeMap<ThreadId, ThreadKind>,
    /// Per-core [kernel, user] queues.
    queues: Vec<[VecDeque<ThreadId>; 2]>,
    next_core: usize,
    runnable: usize,
}

impl UleScheduler {
    /// ULE's default timeslice order of magnitude.
    pub const TIMESLICE: SimDuration = SimDuration::from_millis(10);

    /// Creates a ULE-lite scheduler for `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    pub fn new(num_cores: usize) -> Self {
        assert!(num_cores > 0, "need at least one core");
        UleScheduler {
            timeslice: Self::TIMESLICE,
            kinds: BTreeMap::new(),
            queues: (0..num_cores)
                .map(|_| [VecDeque::new(), VecDeque::new()])
                .collect(),
            next_core: 0,
            runnable: 0,
        }
    }

    fn band(kind: ThreadKind) -> usize {
        match kind {
            ThreadKind::Kernel => 0,
            ThreadKind::User => 1,
        }
    }

    fn pop_from(queues: &mut [VecDeque<ThreadId>; 2]) -> Option<ThreadId> {
        queues[0].pop_front().or_else(|| queues[1].pop_front())
    }
}

impl Scheduler for UleScheduler {
    fn on_spawn(&mut self, id: ThreadId, kind: ThreadKind) {
        self.kinds.insert(id, kind);
    }

    fn on_exit(&mut self, id: ThreadId) {
        self.kinds.remove(&id);
    }

    fn enqueue(&mut self, id: ThreadId, last_core: Option<CoreId>) {
        #[expect(
            clippy::expect_used,
            reason = "the spawn-before-enqueue contract of BsdScheduler"
        )]
        let kind = *self.kinds.get(&id).expect("enqueue of unknown thread");
        // Affinity: requeue where the thread last ran; otherwise round-
        // robin placement.
        let core = match last_core {
            Some(c) if c.index() < self.queues.len() => c.index(),
            _ => {
                let c = self.next_core;
                self.next_core = (self.next_core + 1) % self.queues.len();
                c
            }
        };
        self.queues[core][Self::band(kind)].push_back(id);
        self.runnable += 1;
    }

    fn pick(&mut self, core: CoreId) -> Option<ThreadId> {
        let own = Self::pop_from(&mut self.queues[core.index()]);
        let picked = own.or_else(|| {
            // Steal from the most loaded peer.
            let victim = (0..self.queues.len())
                .filter(|&i| i != core.index())
                .max_by_key(|&i| self.queues[i][0].len() + self.queues[i][1].len())?;
            Self::pop_from(&mut self.queues[victim])
        });
        if picked.is_some() {
            self.runnable -= 1;
        }
        picked
    }

    fn charge(&mut self, _id: ThreadId, _ran: SimDuration) {}

    fn decay(&mut self) {}

    fn timeslice(&self) -> SimDuration {
        self.timeslice
    }

    fn runnable_count(&self) -> usize {
        self.runnable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uid(n: u64) -> ThreadId {
        ThreadId(n)
    }

    #[test]
    fn bsd_round_robin_within_band() {
        let mut s = BsdScheduler::new();
        for i in 0..3 {
            s.on_spawn(uid(i), ThreadKind::User);
            s.enqueue(uid(i), None);
        }
        assert_eq!(s.runnable_count(), 3);
        assert_eq!(s.pick(CoreId(0)), Some(uid(0)));
        assert_eq!(s.pick(CoreId(1)), Some(uid(1)));
        s.enqueue(uid(0), None);
        assert_eq!(s.pick(CoreId(0)), Some(uid(2)));
        assert_eq!(s.pick(CoreId(0)), Some(uid(0)));
        assert_eq!(s.pick(CoreId(0)), None);
        assert_eq!(s.runnable_count(), 0);
    }

    #[test]
    fn bsd_kernel_threads_outrank_users() {
        let mut s = BsdScheduler::new();
        s.on_spawn(uid(1), ThreadKind::User);
        s.on_spawn(uid(2), ThreadKind::Kernel);
        s.enqueue(uid(1), None);
        s.enqueue(uid(2), None);
        assert_eq!(s.pick(CoreId(0)), Some(uid(2)));
    }

    #[test]
    fn bsd_cpu_hogs_sink_below_fresh_threads() {
        let mut s = BsdScheduler::new();
        s.on_spawn(uid(1), ThreadKind::User);
        s.on_spawn(uid(2), ThreadKind::User);
        // Thread 1 has burned lots of recent CPU.
        s.charge(uid(1), SimDuration::from_secs(3));
        s.enqueue(uid(1), None);
        s.enqueue(uid(2), None);
        assert_eq!(s.pick(CoreId(0)), Some(uid(2)), "fresh thread should outrank hog");
    }

    #[test]
    fn bsd_decay_restores_priority() {
        let mut s = BsdScheduler::new();
        s.on_spawn(uid(1), ThreadKind::User);
        s.charge(uid(1), SimDuration::from_secs(5));
        for _ in 0..200 {
            s.decay();
        }
        s.on_spawn(uid(2), ThreadKind::User);
        s.enqueue(uid(1), None);
        s.enqueue(uid(2), None);
        // After heavy decay both are in the same band; FIFO applies.
        assert_eq!(s.pick(CoreId(0)), Some(uid(1)));
    }

    #[test]
    fn bsd_estcpu_saturates_so_hogs_round_robin() {
        // A thread hours into a burn and a thread a dozen seconds into
        // one land in the same (capped) band and round-robin fairly.
        let mut s = BsdScheduler::new();
        s.on_spawn(uid(1), ThreadKind::User);
        s.on_spawn(uid(2), ThreadKind::User);
        s.charge(uid(1), SimDuration::from_secs(3600));
        s.charge(uid(2), SimDuration::from_secs(12));
        s.enqueue(uid(1), None);
        s.enqueue(uid(2), None);
        assert_eq!(s.pick(CoreId(0)), Some(uid(1)), "FIFO within the capped band");
        assert_eq!(s.pick(CoreId(0)), Some(uid(2)));
    }

    #[test]
    fn bsd_timeslice_is_100ms() {
        assert_eq!(BsdScheduler::new().timeslice(), SimDuration::from_millis(100));
    }

    #[test]
    #[should_panic(expected = "timeslice must be positive")]
    fn bsd_zero_timeslice_panics() {
        BsdScheduler::with_timeslice(SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "unknown thread")]
    fn bsd_enqueue_unknown_panics() {
        BsdScheduler::new().enqueue(uid(9), None);
    }

    #[test]
    fn ule_prefers_own_queue_then_steals() {
        let mut s = UleScheduler::new(2);
        s.on_spawn(uid(1), ThreadKind::User);
        s.on_spawn(uid(2), ThreadKind::User);
        s.enqueue(uid(1), Some(CoreId(0)));
        s.enqueue(uid(2), Some(CoreId(0)));
        // Core 1 has nothing local; it steals from core 0.
        assert_eq!(s.pick(CoreId(1)), Some(uid(1)));
        assert_eq!(s.pick(CoreId(0)), Some(uid(2)));
        assert_eq!(s.pick(CoreId(0)), None);
    }

    #[test]
    fn ule_affinity_requeues_to_last_core() {
        let mut s = UleScheduler::new(2);
        s.on_spawn(uid(1), ThreadKind::User);
        s.enqueue(uid(1), Some(CoreId(1)));
        assert_eq!(s.pick(CoreId(1)), Some(uid(1)));
    }

    #[test]
    fn ule_kernel_band_first() {
        let mut s = UleScheduler::new(1);
        s.on_spawn(uid(1), ThreadKind::User);
        s.on_spawn(uid(2), ThreadKind::Kernel);
        s.enqueue(uid(1), Some(CoreId(0)));
        s.enqueue(uid(2), Some(CoreId(0)));
        assert_eq!(s.pick(CoreId(0)), Some(uid(2)));
    }

    #[test]
    fn ule_round_robin_placement_without_affinity() {
        let mut s = UleScheduler::new(2);
        for i in 0..4 {
            s.on_spawn(uid(i), ThreadKind::User);
            s.enqueue(uid(i), None);
        }
        // Spread across both cores.
        assert_eq!(s.queues[0][1].len(), 2);
        assert_eq!(s.queues[1][1].len(), 2);
    }

    #[test]
    fn ule_timeslice_is_short() {
        assert!(UleScheduler::new(1).timeslice() < BsdScheduler::new().timeslice());
    }

    #[test]
    fn runnable_count_tracks() {
        let mut s = UleScheduler::new(2);
        s.on_spawn(uid(1), ThreadKind::User);
        s.enqueue(uid(1), None);
        assert_eq!(s.runnable_count(), 1);
        let _ = s.pick(CoreId(0));
        assert_eq!(s.runnable_count(), 0);
        assert_eq!(s.pick(CoreId(0)), None);
        assert_eq!(s.runnable_count(), 0);
    }
}

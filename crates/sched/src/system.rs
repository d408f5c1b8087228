//! The full-system simulation: machine + scheduler + threads + hook.
//!
//! [`System`] is the discrete-event counterpart of the paper's modified
//! FreeBSD kernel running on the test server. Cores dispatch threads in
//! timeslices; at every scheduling decision the installed [`SchedHook`]
//! may replace the selected thread with an injected idle quantum, pinning
//! the thread exactly as §3.1 describes; between events the machine model
//! integrates power and heat.
//!
//! # Mechanism (§3.1, reproduced faithfully)
//!
//! * When a core needs work it asks the scheduler for the next thread and
//!   consults the hook. On [`Decision::InjectIdle`], the selected thread
//!   is *pinned* (unavailable to other cores), the core runs the idle
//!   thread — entering the machine's idle state — for the quantum, and the
//!   thread is then unpinned and made runnable again.
//! * Context switches cost [`SchedConfig::switch_cost`] of active time;
//!   resuming after an injected idle additionally costs
//!   [`SchedConfig::resume_penalty`] (cold microarchitectural state — the
//!   effect §2.2 and §3.3 cite as the source of the model's ≈1 %
//!   throughput deviation, which grows with `p`).
//! * Kernel-vs-user thread kind is visible to the hook so policies can
//!   exempt kernel threads, as the paper's implementation does.

use dimetrodon_machine::{CoreId, Machine};
use dimetrodon_power::{CoreState as PowerCoreState, PowerMeter};
use dimetrodon_sim_core::{SimDuration, SimTime, TimeSeries};

use crate::calendar::{Calendar, CoreEventKind, Event};
use crate::hook::{Decision, NullHook, SchedHook, ScheduleContext};
use crate::scheduler::{BsdScheduler, Scheduler};
use crate::thread::{Action, Burst, ThreadBody, ThreadId, ThreadKind, ThreadStats};
use crate::trace::{DecisionTrace, TraceEvent};

/// Tunables of the kernel mechanism itself (not of any policy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedConfig {
    /// Active time consumed by a context switch.
    pub switch_cost: SimDuration,
    /// Extra active time the first dispatch after an injected idle pays
    /// (cold caches / microarchitectural state, §2.2).
    pub resume_penalty: SimDuration,
    /// Interval between temperature samples recorded into the system's
    /// time series.
    pub sample_interval: SimDuration,
    /// Interval between scheduler decay / hook ticks.
    pub tick_interval: SimDuration,
    /// Thermal-aware wake placement: when several cores are idle, offer a
    /// waking thread to the coolest one first (the temperature-aware
    /// placement of Moore et al. / Gomaa et al. the paper cites as
    /// complementary). Off by default — the paper's kernel places by
    /// queue order.
    pub thermal_aware_placement: bool,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            switch_cost: SimDuration::from_micros(5),
            resume_penalty: SimDuration::from_micros(150),
            sample_interval: SimDuration::from_millis(100),
            tick_interval: SimDuration::from_secs(1),
            thermal_aware_placement: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadRun {
    Runnable,
    Running(CoreId),
    Sleeping,
    /// Pinned to a core whose injected idle quantum it is waiting out.
    Pinned(CoreId),
    Exited,
}

#[derive(Debug)]
struct ThreadState {
    kind: ThreadKind,
    body: Box<dyn ThreadBody>,
    run: ThreadRun,
    /// The burst to execute next (present whenever runnable/running).
    pending: Option<Burst>,
    last_core: Option<CoreId>,
    stats: ThreadStats,
}

#[derive(Debug, Clone, Copy)]
enum SwitchTarget {
    Run(ThreadId),
    Idle { pinned: ThreadId, quantum: SimDuration },
}

#[derive(Debug, Clone, Copy)]
enum CoreRun {
    Idle,
    Switching {
        target: SwitchTarget,
    },
    Running {
        thread: ThreadId,
        slice_end: SimTime,
        segment_start: SimTime,
        speed: f64,
    },
    InjectedIdle {
        pinned: ThreadId,
    },
}

#[derive(Debug, Clone)]
struct CoreCtl {
    run: CoreRun,
    last_thread: Option<ThreadId>,
    /// Set when an injected idle just ended; the next thread dispatch pays
    /// the resume penalty.
    cold: bool,
}

/// The full-system discrete-event simulation.
///
/// # Examples
///
/// Four cpuburn-like spinners on the four-core machine, with no injection:
///
/// ```
/// use dimetrodon_machine::{Machine, MachineConfig};
/// use dimetrodon_sched::{Spin, System, ThreadKind};
/// use dimetrodon_sim_core::SimTime;
///
/// # fn main() -> Result<(), dimetrodon_machine::MachineError> {
/// let machine = Machine::new(MachineConfig::xeon_e5520())?;
/// let mut system = System::new(machine);
/// for _ in 0..4 {
///     system.spawn(ThreadKind::User, Box::new(Spin::new(1.0)));
/// }
/// system.run_until(SimTime::from_secs(30));
/// assert!(system.machine().mean_core_temperature() > 33.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct System {
    machine: Machine,
    scheduler: Box<dyn Scheduler>,
    hook: Box<dyn SchedHook>,
    config: SchedConfig,
    threads: Vec<ThreadState>,
    cores: Vec<CoreCtl>,
    calendar: Calendar,
    now: SimTime,
    last_advance: SimTime,
    mean_temp: TimeSeries,
    core_temps: Vec<TimeSeries>,
    dispatch_temps: Vec<TimeSeries>,
    power_meter: Option<PowerMeter>,
    trace: Option<DecisionTrace>,
    total_injected_idles: u64,
}

impl System {
    /// Creates a system with the 4.4BSD scheduler, no injection, and
    /// default mechanism tunables.
    pub fn new(machine: Machine) -> Self {
        Self::with_parts(
            machine,
            Box::new(BsdScheduler::new()),
            Box::new(NullHook),
            SchedConfig::default(),
        )
    }

    /// Creates a system from explicit parts.
    pub fn with_parts(
        machine: Machine,
        scheduler: Box<dyn Scheduler>,
        hook: Box<dyn SchedHook>,
        config: SchedConfig,
    ) -> Self {
        let num_cores = machine.num_cores();
        let mut calendar = Calendar::new(num_cores);
        calendar.push(SimTime::ZERO, Event::Sample);
        calendar.push(SimTime::ZERO + config.tick_interval, Event::Tick);
        System {
            machine,
            scheduler,
            hook,
            config,
            threads: Vec::new(),
            cores: (0..num_cores)
                .map(|_| CoreCtl {
                    run: CoreRun::Idle,
                    last_thread: None,
                    cold: false,
                })
                .collect(),
            calendar,
            now: SimTime::ZERO,
            last_advance: SimTime::ZERO,
            mean_temp: TimeSeries::new("mean_core_temp_c"),
            core_temps: (0..num_cores)
                .map(|i| TimeSeries::new(format!("core{i}_temp_c")))
                .collect(),
            dispatch_temps: (0..num_cores)
                .map(|i| TimeSeries::new(format!("core{i}_dispatch_temp_c")))
                .collect(),
            power_meter: None,
            trace: None,
            total_injected_idles: 0,
        }
    }

    /// Replaces the scheduling hook (e.g. to install a Dimetrodon policy).
    /// Takes effect at the next scheduling decision.
    pub fn set_hook(&mut self, hook: Box<dyn SchedHook>) {
        self.hook = hook;
    }

    /// The installed scheduling hook. Combined with
    /// [`SchedHook::as_any`], lets harnesses read policy counters
    /// (injection totals, fault statistics) back out after a run.
    pub fn hook(&self) -> &dyn SchedHook {
        self.hook.as_ref()
    }

    /// Attaches a power meter that observes package power from now on.
    pub fn attach_power_meter(&mut self, meter: PowerMeter) {
        self.power_meter = Some(meter);
    }

    /// The attached power meter, if any.
    pub fn power_meter(&self) -> Option<&PowerMeter> {
        self.power_meter.as_ref()
    }

    /// Enables scheduling-decision tracing, keeping the last `capacity`
    /// records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(DecisionTrace::new(capacity));
    }

    /// The decision trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&DecisionTrace> {
        self.trace.as_ref()
    }

    fn record_trace(&mut self, event: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.record(self.now, event);
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The machine being simulated.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access, for configuring actuators (P-state, TCC
    /// duty) before or between runs. Changing the machine's speed while
    /// threads are mid-slice affects only subsequently scheduled work.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Per-thread accounting.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not spawned on this system.
    pub fn thread_stats(&self, id: ThreadId) -> &ThreadStats {
        &self.threads[id.0 as usize].stats
    }

    /// Whether a thread has exited.
    pub fn has_exited(&self, id: ThreadId) -> bool {
        self.threads[id.0 as usize].run == ThreadRun::Exited
    }

    /// Ids of all spawned threads.
    pub fn thread_ids(&self) -> impl Iterator<Item = ThreadId> {
        (0..self.threads.len() as u64).map(ThreadId)
    }

    /// The mean-core-temperature series, sampled every
    /// [`SchedConfig::sample_interval`].
    pub fn mean_temp_series(&self) -> &TimeSeries {
        &self.mean_temp
    }

    /// A single core's temperature series.
    pub fn core_temp_series(&self, core: CoreId) -> &TimeSeries {
        &self.core_temps[core.index()]
    }

    /// A core's *observed* temperature series: the hotspot sensor read at
    /// every thread dispatch on that core.
    ///
    /// This models how temperature was actually measured on the paper's
    /// platform: the `coretemp` logger is itself a process, and on a
    /// saturated machine its reads land at scheduling boundaries — which
    /// under idle injection predominantly follow idle quanta, when the
    /// hotspot has collapsed toward die bulk. The paper's Figure 3 "short
    /// quanta are disproportionately efficient" observation lives in this
    /// series, not in the physically time-averaged one.
    pub fn dispatch_temp_series(&self, core: CoreId) -> &TimeSeries {
        &self.dispatch_temps[core.index()]
    }

    /// Mean of all dispatch-point sensor readings across cores with time
    /// `>= from` — the paper's "average core temperature over the last N
    /// seconds" measurement. `None` if no dispatches occurred in the
    /// window.
    pub fn observed_temp_over(&self, from: SimTime) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for series in &self.dispatch_temps {
            for (t, v) in series.iter() {
                if t >= from {
                    sum += v;
                    n += 1;
                }
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Total idle quanta injected across all threads.
    pub fn total_injected_idles(&self) -> u64 {
        self.total_injected_idles
    }

    /// Spawns a thread; it becomes runnable (or sleeps/exits) immediately
    /// according to its body's first action.
    pub fn spawn(&mut self, kind: ThreadKind, body: Box<dyn ThreadBody>) -> ThreadId {
        let id = ThreadId(self.threads.len() as u64);
        self.scheduler.on_spawn(id, kind);
        self.threads.push(ThreadState {
            kind,
            body,
            run: ThreadRun::Sleeping, // resolved below
            pending: None,
            last_core: None,
            stats: ThreadStats {
                spawned_at: self.now,
                ..ThreadStats::default()
            },
        });
        self.resolve_action(id);
        id
    }

    /// Runs the simulation until simulated time `t` (inclusive of events
    /// at `t`), then advances the machine model to exactly `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.reserve_samples_until(t);
        while self.step(t) {}
        self.advance_to(t);
    }

    /// Sizes the sample series for a run up to `t` up front instead of
    /// letting them double through it. [`run_until`](Self::run_until)
    /// starts with this; a run driven through
    /// [`run_events`](Self::run_events) calls it once before its first
    /// chunk.
    pub fn reserve_samples_until(&mut self, t: SimTime) {
        if t > self.now {
            let samples = ((t - self.now).as_secs_f64()
                / self.config.sample_interval.as_secs_f64())
            .ceil() as usize
                + 1;
            self.mean_temp.reserve(samples);
            for series in &mut self.core_temps {
                series.reserve(samples);
            }
        }
    }

    /// Dispatches at most `max_events` events at or before `deadline`
    /// and returns how many it popped. Each is the same step
    /// [`run_until`](Self::run_until) takes, so a run driven through
    /// `run_events` in any number of chunks (to count its events, say)
    /// and finished with `run_until(deadline)` is bit-identical to a
    /// single uninterrupted `run_until(deadline)`.
    ///
    /// A return value smaller than `max_events` means no more events are
    /// pending at or before the deadline; the machine model has *not*
    /// been advanced to the deadline yet — that is
    /// `run_until(deadline)`'s closing step.
    pub fn run_events(&mut self, max_events: u64, deadline: SimTime) -> u64 {
        let mut dispatched = 0;
        while dispatched < max_events && self.step(deadline) {
            dispatched += 1;
        }
        dispatched
    }

    /// Runs until every thread in `ids` has exited or `deadline` passes.
    /// Returns `true` if all exited.
    pub fn run_until_exited(&mut self, ids: &[ThreadId], deadline: SimTime) -> bool {
        while !ids.iter().all(|&id| self.has_exited(id)) {
            if !self.step(deadline) {
                return false;
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Pops the earliest event at or before `deadline`, advances the
    /// machine to it and dispatches it; `false` when none is due.
    fn step(&mut self, deadline: SimTime) -> bool {
        let Some((at, event)) = self.calendar.pop_at_or_before(deadline) else {
            return false;
        };
        self.advance_to(at);
        self.dispatch(event);
        true
    }

    fn advance_to(&mut self, t: SimTime) {
        if t > self.last_advance {
            let dt = t - self.last_advance;
            let watts = self.machine.advance(dt);
            if let Some(meter) = &mut self.power_meter {
                meter.observe(self.last_advance, dt, watts);
            }
            self.last_advance = t;
            debug_assert!(
                self.machine.energy().elapsed()
                    == self.last_advance.saturating_since(SimTime::ZERO),
                "energy accounting drifted from scheduler time: meter at {}, \
                 scheduler at {}",
                self.machine.energy().elapsed(),
                self.last_advance
            );
        }
        if t > self.now {
            self.now = t;
        }
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::Core { core, kind } => match kind {
                CoreEventKind::SwitchDone => self.on_switch_done(core),
                CoreEventKind::SliceEnd => self.on_slice_end(core),
                CoreEventKind::BurstEnd => self.on_burst_end(core),
                CoreEventKind::InjectedIdleEnd => self.on_injected_idle_end(core),
            },
            Event::Wakeup(id) => self.on_wakeup(id),
            Event::Sample => {
                self.mean_temp
                    .push(self.now, self.machine.mean_core_temperature());
                for core in 0..self.cores.len() {
                    let t = self.machine.core_temperature(CoreId(core));
                    self.core_temps[core].push(self.now, t);
                }
                self.calendar
                    .push(self.now + self.config.sample_interval, Event::Sample);
            }
            Event::Tick => {
                self.scheduler.decay();
                self.hook.on_tick(self.now, &self.machine);
                self.calendar
                    .push(self.now + self.config.tick_interval, Event::Tick);
            }
        }
    }

    /// Resolves a thread's next action (after spawn, wakeup, or burst
    /// completion when its slice is over).
    fn resolve_action(&mut self, id: ThreadId) {
        let idx = id.0 as usize;
        loop {
            let action = self.threads[idx].body.next_action(self.now);
            match action {
                Action::Run(burst) => {
                    self.threads[idx].pending = Some(burst);
                    self.make_runnable(id);
                    return;
                }
                Action::Sleep(d) => {
                    if d.is_zero() {
                        continue; // zero sleeps resolve immediately
                    }
                    self.threads[idx].run = ThreadRun::Sleeping;
                    self.calendar.push(self.now + d, Event::Wakeup(id));
                    self.record_trace(TraceEvent::Sleep {
                        thread: id,
                        duration: d,
                    });
                    return;
                }
                Action::Exit => {
                    self.threads[idx].run = ThreadRun::Exited;
                    self.threads[idx].stats.exited_at = Some(self.now);
                    self.scheduler.on_exit(id);
                    self.record_trace(TraceEvent::Exit { thread: id });
                    return;
                }
            }
        }
    }

    fn make_runnable(&mut self, id: ThreadId) {
        let idx = id.0 as usize;
        debug_assert!(self.threads[idx].pending.is_some(), "runnable without burst");
        self.threads[idx].run = ThreadRun::Runnable;
        let last_core = self.threads[idx].last_core;
        self.scheduler.enqueue(id, last_core);
        self.kick_idle_cores();
    }

    fn kick_idle_cores(&mut self) {
        if !self.config.thermal_aware_placement {
            // Core order: check-and-schedule directly, no staging list
            // (this runs on every wakeup/enqueue).
            for core in 0..self.cores.len() {
                if matches!(self.cores[core].run, CoreRun::Idle) {
                    self.schedule_core(core);
                }
            }
            return;
        }
        // Offer work to the coolest die first, spreading heat.
        let mut idle: Vec<usize> = (0..self.cores.len())
            .filter(|&core| matches!(self.cores[core].run, CoreRun::Idle))
            .collect();
        idle.sort_by(|&a, &b| {
            self.machine
                .core_temperature(CoreId(a))
                .total_cmp(&self.machine.core_temperature(CoreId(b)))
        });
        for core in idle {
            if matches!(self.cores[core].run, CoreRun::Idle) {
                self.schedule_core(core);
            }
        }
    }

    /// Core `core` is free: pick the next thread (consulting the hook) or
    /// go idle.
    fn schedule_core(&mut self, core: usize) {
        let Some(tid) = self.scheduler.pick(CoreId(core)) else {
            self.cores[core].run = CoreRun::Idle;
            self.machine.set_core_idle(CoreId(core));
            return;
        };
        let kind = self.threads[tid.0 as usize].kind;
        let decision = self.hook.on_schedule(&ScheduleContext {
            core: CoreId(core),
            thread: tid,
            kind,
            now: self.now,
            machine: &self.machine,
        });
        match decision {
            Decision::Run => self.begin_dispatch(core, tid),
            Decision::InjectIdle(quantum) => {
                assert!(!quantum.is_zero(), "injected idle quantum must be positive");
                let ts = &mut self.threads[tid.0 as usize];
                ts.run = ThreadRun::Pinned(CoreId(core));
                ts.stats.injected_idles += 1;
                ts.stats.injected_idle_time += quantum;
                self.total_injected_idles += 1;
                self.record_trace(TraceEvent::InjectIdle {
                    core: CoreId(core),
                    thread: tid,
                    quantum,
                });
                // Switching to the kernel idle thread costs a context
                // switch like any other.
                self.begin_switch(core, SwitchTarget::Idle { pinned: tid, quantum });
            }
        }
    }

    fn begin_dispatch(&mut self, core: usize, tid: ThreadId) {
        let same_thread = self.cores[core].last_thread == Some(tid);
        if same_thread && !self.cores[core].cold {
            // Quantum continuation: no switch cost.
            self.begin_run(core, tid);
        } else {
            self.begin_switch(core, SwitchTarget::Run(tid));
        }
    }

    fn begin_switch(&mut self, core: usize, target: SwitchTarget) {
        let mut cost = self.config.switch_cost;
        if matches!(target, SwitchTarget::Run(_)) && self.cores[core].cold {
            cost += self.config.resume_penalty;
            // Waking out of a deep (cache-flushing) idle state costs the
            // refill on top — the §2.2 "microarchitectural state" price.
            if self.machine.core_state(CoreId(core)) == PowerCoreState::IdleC6 {
                if let Some(deep) = self.machine.config().deep_idle {
                    cost += deep.extra_resume_penalty;
                }
            }
            self.cores[core].cold = false;
        }
        if cost.is_zero() {
            self.finish_switch(core, target);
            return;
        }
        self.cores[core].run = CoreRun::Switching { target };
        // Kernel switch code is ordinary active execution.
        self.machine
            .set_core_state(CoreId(core), PowerCoreState::active(0.5));
        let kind = CoreEventKind::SwitchDone;
        self.calendar
            .push(self.now + cost, Event::Core { core, kind });
    }

    fn on_switch_done(&mut self, core: usize) {
        let CoreRun::Switching { target } = self.cores[core].run else {
            unreachable!("a core's SwitchDone ends its Switching");
        };
        self.finish_switch(core, target);
    }

    fn finish_switch(&mut self, core: usize, target: SwitchTarget) {
        match target {
            SwitchTarget::Run(tid) => self.begin_run(core, tid),
            SwitchTarget::Idle { pinned, quantum } => {
                self.cores[core].run = CoreRun::InjectedIdle { pinned };
                self.cores[core].last_thread = None;
                // The governor knows the quantum length up front, so it
                // can pick a deep state when the residency is worth it.
                self.machine.set_core_idle_for(CoreId(core), Some(quantum));
                let kind = CoreEventKind::InjectedIdleEnd;
                self.calendar
                    .push(self.now + quantum, Event::Core { core, kind });
            }
        }
    }

    fn begin_run(&mut self, core: usize, tid: ThreadId) {
        // The dispatch boundary is where a monitoring process's sensor
        // reads land on a loaded machine; record what it would see.
        let sensor = self.machine.core_sensor_temperature(CoreId(core));
        self.dispatch_temps[core].push(self.now, sensor);
        self.record_trace(TraceEvent::Dispatch {
            core: CoreId(core),
            thread: tid,
        });
        let ts = &mut self.threads[tid.0 as usize];
        ts.run = ThreadRun::Running(CoreId(core));
        ts.last_core = Some(CoreId(core));
        ts.stats.scheduled_count += 1;
        self.cores[core].last_thread = Some(tid);
        self.cores[core].cold = false;
        let speed = self.machine.core_relative_speed(CoreId(core));
        let slice_end = self.now + self.scheduler.timeslice();
        self.start_segment(core, tid, slice_end, speed);
    }

    /// Begins (or continues) executing the thread's pending burst within
    /// the current slice.
    fn start_segment(&mut self, core: usize, tid: ThreadId, slice_end: SimTime, speed: f64) {
        #[expect(
            clippy::expect_used,
            reason = "a dispatched thread always carries a pending burst"
        )]
        let burst = self.threads[tid.0 as usize]
            .pending
            .expect("running thread has a pending burst");
        self.machine
            .set_core_state(CoreId(core), PowerCoreState::active(burst.activity));
        self.cores[core].run = CoreRun::Running {
            thread: tid,
            slice_end,
            segment_start: self.now,
            speed,
        };
        let wall_needed = SimDuration::from_secs_f64(burst.cpu_time.as_secs_f64() / speed);
        let burst_end = self.now + wall_needed;
        let (at, kind) = if burst_end <= slice_end {
            (burst_end, CoreEventKind::BurstEnd)
        } else {
            (slice_end, CoreEventKind::SliceEnd)
        };
        self.calendar.push(at, Event::Core { core, kind });
    }

    fn on_slice_end(&mut self, core: usize) {
        let CoreRun::Running {
            thread,
            segment_start,
            speed,
            ..
        } = self.cores[core].run
        else {
            unreachable!("a core's SliceEnd ends its Running");
        };
        let ran = self.now - segment_start;
        let progress = ran.mul_f64(speed);
        let ts = &mut self.threads[thread.0 as usize];
        #[expect(clippy::expect_used, reason = "Running implies a pending burst")]
        let burst = ts.pending.expect("running thread has a burst");
        let remaining = burst.cpu_time.saturating_sub(progress);
        ts.stats.cpu_executed += burst.cpu_time - remaining;
        self.scheduler.charge(thread, ran);
        if remaining.is_zero() {
            // Rounding made the burst finish exactly at the slice edge.
            ts.pending = None;
            ts.stats.bursts_completed += 1;
            self.thread_finished_burst(core, thread, None);
        } else {
            ts.pending = Some(Burst::new(remaining, burst.activity));
            self.make_runnable(thread);
            self.schedule_core(core);
        }
    }

    fn on_burst_end(&mut self, core: usize) {
        let CoreRun::Running {
            thread,
            slice_end,
            segment_start,
            speed,
        } = self.cores[core].run
        else {
            unreachable!("a core's BurstEnd ends its Running");
        };
        let ran = self.now - segment_start;
        let ts = &mut self.threads[thread.0 as usize];
        #[expect(clippy::expect_used, reason = "Running implies a pending burst")]
        let burst = ts.pending.take().expect("running thread has a burst");
        ts.stats.cpu_executed += burst.cpu_time;
        ts.stats.bursts_completed += 1;
        self.scheduler.charge(thread, ran);
        self.thread_finished_burst(core, thread, Some((slice_end, speed)));
    }

    /// A burst ended. If the slice continues and the next action is
    /// another run, keep executing; otherwise free the core.
    fn thread_finished_burst(
        &mut self,
        core: usize,
        tid: ThreadId,
        slice: Option<(SimTime, f64)>,
    ) {
        let idx = tid.0 as usize;
        let action = self.threads[idx].body.next_action(self.now);
        match action {
            Action::Run(burst) => {
                self.threads[idx].pending = Some(burst);
                match slice {
                    Some((slice_end, speed)) if self.now < slice_end => {
                        // Continue within the same slice: no scheduling
                        // decision, no hook.
                        self.start_segment(core, tid, slice_end, speed);
                    }
                    _ => {
                        self.make_runnable(tid);
                        self.schedule_core(core);
                    }
                }
            }
            Action::Sleep(d) => {
                if d.is_zero() {
                    // Treat zero sleeps as yields.
                    self.threads[idx].pending = None;
                    self.resolve_action(tid);
                } else {
                    self.threads[idx].run = ThreadRun::Sleeping;
                    self.calendar.push(self.now + d, Event::Wakeup(tid));
                    self.record_trace(TraceEvent::Sleep {
                        thread: tid,
                        duration: d,
                    });
                }
                self.schedule_core(core);
            }
            Action::Exit => {
                self.threads[idx].run = ThreadRun::Exited;
                self.threads[idx].stats.exited_at = Some(self.now);
                self.scheduler.on_exit(tid);
                self.record_trace(TraceEvent::Exit { thread: tid });
                self.schedule_core(core);
            }
        }
    }

    fn on_injected_idle_end(&mut self, core: usize) {
        let CoreRun::InjectedIdle { pinned } = self.cores[core].run else {
            unreachable!("a core's InjectedIdleEnd ends its InjectedIdle");
        };
        self.cores[core].cold = true;
        // Unpin: the thread rejoins the runqueue (any core may now take
        // it); then this core schedules normally — possibly injecting
        // again, which is what makes idle quanta per execution quantum
        // geometric with mean p/(1-p).
        self.make_runnable(pinned);
        debug_assert!(
            matches!(self.cores[core].run, CoreRun::InjectedIdle { .. }),
            "kick_idle_cores schedules only Idle cores, so this one is still InjectedIdle"
        );
        self.schedule_core(core);
    }

    fn on_wakeup(&mut self, id: ThreadId) {
        if self.threads[id.0 as usize].run == ThreadRun::Sleeping {
            self.record_trace(TraceEvent::Wakeup { thread: id });
            self.resolve_action(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::{FixedWork, Spin};
    use crate::scheduler::UleScheduler;
    use dimetrodon_machine::MachineConfig;
    use dimetrodon_sim_core::SimRng;

    fn machine() -> Machine {
        Machine::new(MachineConfig::xeon_e5520()).expect("valid preset")
    }

    fn system() -> System {
        System::new(machine())
    }

    /// A probabilistic injection hook for exercising the mechanism from
    /// this crate's tests (the real policies live in `dimetrodon`).
    #[derive(Debug, Clone)]
    struct TestInjector {
        p: f64,
        quantum: SimDuration,
        rng: SimRng,
    }

    impl SchedHook for TestInjector {
        fn on_schedule(&mut self, _ctx: &ScheduleContext<'_>) -> Decision {
            if self.rng.bernoulli(self.p) {
                Decision::InjectIdle(self.quantum)
            } else {
                Decision::Run
            }
        }
    }

    #[test]
    fn fixed_work_completes_in_expected_wall_time() {
        let mut sys = system();
        let id = sys.spawn(
            ThreadKind::User,
            Box::new(FixedWork::new(SimDuration::from_secs(2), 1.0)),
        );
        assert!(sys.run_until_exited(&[id], SimTime::from_secs(10)));
        let stats = sys.thread_stats(id);
        assert_eq!(stats.cpu_executed, SimDuration::from_secs(2));
        let wall = stats.wall_time().expect("exited");
        // Alone on a four-core machine: wall ~= cpu + tiny switch costs.
        let slack = wall.as_secs_f64() - 2.0;
        assert!((0.0..0.01).contains(&slack), "slack {slack}");
    }

    #[test]
    fn four_spinners_share_four_cores_fully() {
        let mut sys = system();
        let ids: Vec<ThreadId> = (0..4)
            .map(|_| sys.spawn(ThreadKind::User, Box::new(Spin::new(1.0))))
            .collect();
        sys.run_until(SimTime::from_secs(10));
        for id in ids {
            let done = sys.thread_stats(id).cpu_executed.as_secs_f64();
            assert!((9.8..=10.0).contains(&done), "thread got {done}s of 10");
        }
    }

    #[test]
    fn six_spinners_on_four_cores_get_two_thirds_each() {
        let mut sys = system();
        let ids: Vec<ThreadId> = (0..6)
            .map(|_| sys.spawn(ThreadKind::User, Box::new(Spin::new(1.0))))
            .collect();
        sys.run_until(SimTime::from_secs(30));
        for id in ids {
            let done = sys.thread_stats(id).cpu_executed.as_secs_f64();
            let share = done / 30.0;
            assert!(
                (0.55..0.78).contains(&share),
                "fair share violated: {share}"
            );
        }
    }

    #[test]
    fn scheduled_count_reflects_timeslices() {
        let mut sys = system();
        // Two spinners forced onto contention by spawning six on four
        // cores would migrate; instead check the solo case: a spinner
        // running 10 s in 100 ms slices is dispatched ~100 times.
        let id = sys.spawn(ThreadKind::User, Box::new(Spin::new(1.0)));
        sys.run_until(SimTime::from_secs(10));
        let s = sys.thread_stats(id).scheduled_count;
        assert!((95..=105).contains(&s), "scheduled {s} times");
    }

    #[test]
    fn sleeping_thread_wakes_and_runs() {
        #[derive(Debug, Clone)]
        struct SleepThenWork {
            phase: u32,
        }
        impl ThreadBody for SleepThenWork {
            fn next_action(&mut self, _now: SimTime) -> Action {
                self.phase += 1;
                match self.phase {
                    1 => Action::Sleep(SimDuration::from_secs(1)),
                    2 => Action::Run(Burst::new(SimDuration::from_millis(50), 1.0)),
                    _ => Action::Exit,
                }
            }
        }
        let mut sys = system();
        let id = sys.spawn(ThreadKind::User, Box::new(SleepThenWork { phase: 0 }));
        assert!(sys.run_until_exited(&[id], SimTime::from_secs(5)));
        let stats = sys.thread_stats(id);
        assert_eq!(stats.cpu_executed, SimDuration::from_millis(50));
        let wall = stats.wall_time().unwrap().as_secs_f64();
        assert!((1.05..1.06).contains(&wall), "wall {wall}");
    }

    #[test]
    fn injection_slows_thread_as_model_predicts() {
        // R = 2 s of work in 100 ms slices => S = 20. p = 0.5, L = 100 ms
        // => D = R + S * 1.0 * 0.1 = 4 s.
        let mut sys = system();
        sys.set_hook(Box::new(TestInjector {
            p: 0.5,
            quantum: SimDuration::from_millis(100),
            rng: SimRng::new(42),
        }));
        let id = sys.spawn(
            ThreadKind::User,
            Box::new(FixedWork::new(SimDuration::from_secs(2), 1.0)),
        );
        assert!(sys.run_until_exited(&[id], SimTime::from_secs(30)));
        let wall = sys.thread_stats(id).wall_time().unwrap().as_secs_f64();
        // Probabilistic: allow a generous band around 4 s.
        assert!((3.0..5.2).contains(&wall), "wall {wall}");
        assert!(sys.thread_stats(id).injected_idles > 5);
        assert!(sys.total_injected_idles() > 5);
    }

    #[test]
    fn injection_cools_the_machine() {
        let run = |p: f64| {
            let mut sys = system();
            sys.machine_mut().settle_idle();
            sys.set_hook(Box::new(TestInjector {
                p,
                quantum: SimDuration::from_millis(100),
                rng: SimRng::new(7),
            }));
            for _ in 0..4 {
                sys.spawn(ThreadKind::User, Box::new(Spin::new(1.0)));
            }
            sys.run_until(SimTime::from_secs(120));
            sys.machine().mean_core_temperature()
        };
        let hot = run(0.0);
        let cooled = run(0.5);
        assert!(
            cooled < hot - 3.0,
            "injection should cool: p=0 -> {hot}, p=0.5 -> {cooled}"
        );
    }

    #[test]
    fn pinned_thread_is_not_run_elsewhere() {
        // One spinner, p = 1 would starve; use p high with 3 other cores
        // empty: while pinned, no other core may run the thread, so its
        // cpu share drops according to injection.
        let mut sys = system();
        sys.set_hook(Box::new(TestInjector {
            p: 0.75,
            quantum: SimDuration::from_millis(100),
            rng: SimRng::new(3),
        }));
        let id = sys.spawn(ThreadKind::User, Box::new(Spin::new(1.0)));
        sys.run_until(SimTime::from_secs(20));
        let done = sys.thread_stats(id).cpu_executed.as_secs_f64();
        let share = done / 20.0;
        // Expected share = 1/(1 + p/(1-p)) = 25%.
        assert!((0.17..0.35).contains(&share), "share {share}");
    }

    #[test]
    fn temperature_series_is_sampled() {
        let mut sys = system();
        sys.spawn(ThreadKind::User, Box::new(Spin::new(1.0)));
        sys.run_until(SimTime::from_secs(5));
        // 100 ms sampling for 5 s: ~50 samples.
        assert!((45..=55).contains(&sys.mean_temp_series().len()));
        assert!(sys.core_temp_series(CoreId(0)).len() >= 45);
    }

    #[test]
    fn power_meter_observes_trace() {
        let mut rng = SimRng::new(9);
        let mut sys = system();
        sys.machine_mut().settle_idle();
        sys.attach_power_meter(PowerMeter::ideal(SimDuration::from_millis(1), &mut rng));
        for _ in 0..4 {
            sys.spawn(ThreadKind::User, Box::new(Spin::new(1.0)));
        }
        sys.run_until(SimTime::from_secs(1));
        let meter = sys.power_meter().expect("attached");
        assert!(meter.series().len() > 900);
        // Full load: around 72 W.
        let mean = meter.series().mean().unwrap();
        assert!((60.0..85.0).contains(&mean), "mean power {mean}");
    }

    #[test]
    fn ule_scheduler_also_works() {
        let m = machine();
        let mut sys = System::with_parts(
            m,
            Box::new(UleScheduler::new(4)),
            Box::new(NullHook),
            SchedConfig::default(),
        );
        let ids: Vec<ThreadId> = (0..4)
            .map(|_| sys.spawn(ThreadKind::User, Box::new(Spin::new(1.0))))
            .collect();
        sys.run_until(SimTime::from_secs(5));
        for id in ids {
            let done = sys.thread_stats(id).cpu_executed.as_secs_f64();
            assert!(done > 4.8, "ULE starved a thread: {done}");
        }
    }

    #[test]
    fn vfs_slows_execution_proportionally() {
        use dimetrodon_power::PStateId;
        let mut sys = system();
        let slowest = PStateId(sys.machine().config().pstates.len() - 1);
        sys.machine_mut().set_pstate(slowest);
        let id = sys.spawn(
            ThreadKind::User,
            Box::new(FixedWork::new(SimDuration::from_secs(1), 1.0)),
        );
        assert!(sys.run_until_exited(&[id], SimTime::from_secs(10)));
        let wall = sys.thread_stats(id).wall_time().unwrap().as_secs_f64();
        let expected = 2266.0 / 1600.0;
        assert!(
            (wall - expected).abs() < 0.02,
            "wall {wall} vs expected {expected}"
        );
    }

    #[test]
    fn deterministic_under_same_seed() {
        let run = || {
            let mut sys = system();
            sys.set_hook(Box::new(TestInjector {
                p: 0.5,
                quantum: SimDuration::from_millis(50),
                rng: SimRng::new(1234),
            }));
            let ids: Vec<ThreadId> = (0..4)
                .map(|_| {
                    sys.spawn(
                        ThreadKind::User,
                        Box::new(FixedWork::new(SimDuration::from_secs(1), 1.0)),
                    )
                })
                .collect();
            sys.run_until(SimTime::from_secs(20));
            ids.iter()
                .map(|&id| sys.thread_stats(id).clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn exited_threads_stop_consuming() {
        let mut sys = system();
        let id = sys.spawn(
            ThreadKind::User,
            Box::new(FixedWork::new(SimDuration::from_millis(100), 1.0)),
        );
        sys.run_until(SimTime::from_secs(2));
        assert!(sys.has_exited(id));
        assert_eq!(sys.thread_stats(id).cpu_executed, SimDuration::from_millis(100));
        // Machine returns to idle after exit.
        assert!(!sys.machine().core_state(CoreId(0)).is_active());
    }

    #[test]
    fn thermal_aware_placement_spreads_heat() {
        // A single periodic hot thread: without placement it lands on
        // core 0 every wake (queue order); with thermal-aware placement
        // it rotates to the coolest die, so the hottest die stays cooler.
        #[derive(Debug, Clone)]
        struct PulsedBurn {
            working: bool,
            left: SimDuration,
        }
        impl ThreadBody for PulsedBurn {
            fn next_action(&mut self, _now: SimTime) -> Action {
                if !self.working {
                    self.working = true;
                    self.left = SimDuration::from_millis(300);
                }
                if self.left.is_zero() {
                    self.working = false;
                    // Short sleep: the just-used die is still warm at the
                    // next wake, so a coolest-first placement rotates.
                    return Action::Sleep(SimDuration::from_millis(60));
                }
                let chunk = self.left.min(SimDuration::from_millis(10));
                self.left -= chunk;
                Action::Run(Burst::new(chunk, 1.0))
            }
        }
        let hottest_die_tail_mean = |placement: bool| {
            let machine = machine();
            let config = SchedConfig {
                thermal_aware_placement: placement,
                ..SchedConfig::default()
            };
            let mut sys = System::with_parts(
                machine,
                Box::new(BsdScheduler::new()),
                Box::new(NullHook),
                config,
            );
            sys.machine_mut().settle_idle();
            sys.spawn(
                ThreadKind::User,
                Box::new(PulsedBurn {
                    working: false,
                    left: SimDuration::ZERO,
                }),
            );
            sys.run_until(SimTime::from_secs(60));
            (0..4)
                .map(|i| {
                    sys.core_temp_series(CoreId(i))
                        .mean_over(SimTime::from_secs(30))
                        .expect("sampled")
                })
                .fold(f64::MIN, f64::max)
        };
        let concentrated = hottest_die_tail_mean(false);
        let spread = hottest_die_tail_mean(true);
        assert!(
            spread < concentrated - 0.3,
            "placement should lower the hottest die: {spread} vs {concentrated}"
        );
    }

    #[test]
    fn deep_idle_cools_long_quanta_further() {
        // Same policy, platform with/without a C6-class state: the deep
        // state lowers the idle floor during long injected quanta.
        let run_on = |config: dimetrodon_machine::MachineConfig| {
            let mut machine = Machine::new(config).unwrap();
            machine.settle_idle();
            let mut sys = System::new(machine);
            sys.set_hook(Box::new(TestInjector {
                p: 0.6,
                quantum: SimDuration::from_millis(100),
                rng: SimRng::new(88),
            }));
            for _ in 0..4 {
                sys.spawn(ThreadKind::User, Box::new(Spin::new(1.0)));
            }
            sys.run_until(SimTime::from_secs(100));
            sys.mean_temp_series()
                .mean_over(SimTime::from_secs(80))
                .expect("sampled")
        };
        let c1e_only = run_on(dimetrodon_machine::MachineConfig::xeon_e5520());
        let with_c6 = run_on(dimetrodon_machine::MachineConfig::xeon_e5520_deep_idle());
        assert!(
            with_c6 < c1e_only - 0.1,
            "C6 should cool further: {with_c6} vs {c1e_only}"
        );
    }

    #[test]
    fn deep_idle_not_entered_for_short_quanta() {
        let mut machine =
            Machine::new(dimetrodon_machine::MachineConfig::xeon_e5520_deep_idle()).unwrap();
        machine.settle_idle();
        let mut sys = System::new(machine);
        sys.set_hook(Box::new(TestInjector {
            p: 0.6,
            quantum: SimDuration::from_micros(500), // below min residency
            rng: SimRng::new(89),
        }));
        sys.spawn(ThreadKind::User, Box::new(Spin::new(1.0)));
        // Step through events and check no core ever sits in C6.
        for step in 1..=200 {
            sys.run_until(SimTime::from_millis(step * 10));
            for core in 0..4 {
                assert_ne!(
                    sys.machine().core_state(CoreId(core)),
                    PowerCoreState::IdleC6,
                    "short quanta must not enter C6"
                );
            }
        }
    }

    #[test]
    fn trace_records_scheduling_story() {
        let mut sys = system();
        sys.enable_trace(100_000);
        sys.set_hook(Box::new(TestInjector {
            p: 0.5,
            quantum: SimDuration::from_millis(100),
            rng: SimRng::new(77),
        }));
        let id = sys.spawn(
            ThreadKind::User,
            Box::new(FixedWork::new(SimDuration::from_secs(1), 1.0)),
        );
        assert!(sys.run_until_exited(&[id], SimTime::from_secs(30)));
        let trace = sys.trace().expect("enabled");

        // Trace counts agree with the accounting.
        let injections = trace.count_matching(|e| matches!(e, TraceEvent::InjectIdle { .. }));
        assert_eq!(injections as u64, sys.total_injected_idles());
        let dispatches = trace.count_matching(|e| matches!(e, TraceEvent::Dispatch { .. }));
        assert_eq!(dispatches as u64, sys.thread_stats(id).scheduled_count);
        assert_eq!(trace.count_matching(|e| matches!(e, TraceEvent::Exit { .. })), 1);

        // Pinning invariant from the trace: after an InjectIdle that pins
        // the thread on a core, its next dispatch never occurs on a
        // *different* core at the same instant (it was unavailable).
        let mut pinned_until: Option<SimTime> = None;
        for record in trace.iter() {
            match record.event {
                TraceEvent::InjectIdle { .. } => {
                    pinned_until = Some(record.at + SimDuration::from_millis(100));
                }
                TraceEvent::Dispatch { .. } => {
                    if let Some(until) = pinned_until.take() {
                        assert!(
                            record.at >= until,
                            "thread dispatched at {} while pinned until {until}",
                            record.at
                        );
                    }
                }
                _ => {}
            }
        }
        // And the human-readable dump mentions the pinning.
        assert!(trace.render().contains("inject idle"));
    }

    #[test]
    fn threads_can_spawn_mid_run() {
        let mut sys = system();
        let first = sys.spawn(ThreadKind::User, Box::new(Spin::new(1.0)));
        sys.run_until(SimTime::from_secs(5));
        let late = sys.spawn(ThreadKind::User, Box::new(Spin::new(1.0)));
        sys.run_until(SimTime::from_secs(10));
        // The late thread runs from its spawn instant on a free core.
        let late_cpu = sys.thread_stats(late).cpu_executed.as_secs_f64();
        assert!((4.8..=5.0).contains(&late_cpu), "late thread got {late_cpu}");
        assert_eq!(sys.thread_stats(late).spawned_at, SimTime::from_secs(5));
        assert!(sys.thread_stats(first).cpu_executed.as_secs_f64() > 9.8);
    }

    #[test]
    fn run_until_is_idempotent_at_the_same_instant() {
        let mut sys = system();
        sys.spawn(ThreadKind::User, Box::new(Spin::new(1.0)));
        sys.run_until(SimTime::from_secs(2));
        let temp = sys.machine().mean_core_temperature();
        let energy = sys.machine().energy().joules();
        sys.run_until(SimTime::from_secs(2));
        assert_eq!(sys.machine().mean_core_temperature(), temp);
        assert_eq!(sys.machine().energy().joules(), energy);
        assert_eq!(sys.now(), SimTime::from_secs(2));
    }

    #[test]
    fn mid_run_pstate_change_slows_subsequent_work() {
        use dimetrodon_power::PStateId;
        let mut sys = system();
        let id = sys.spawn(ThreadKind::User, Box::new(Spin::new(1.0)));
        sys.run_until(SimTime::from_secs(5));
        let before = sys.thread_stats(id).cpu_executed.as_secs_f64();
        let slowest = PStateId(sys.machine().config().pstates.len() - 1);
        sys.machine_mut().set_pstate(slowest);
        sys.run_until(SimTime::from_secs(10));
        let gained = sys.thread_stats(id).cpu_executed.as_secs_f64() - before;
        // Second half progressed at ~71% speed (applied from the next
        // scheduled slice).
        assert!((3.3..3.8).contains(&gained), "gained {gained}");
    }

    #[test]
    fn kernel_threads_visible_to_hook() {
        #[derive(Debug, Default)]
        struct KindRecorder {
            kernel_seen: std::cell::Cell<bool>,
        }
        #[derive(Debug, Clone)]
        struct RecordingHook(std::rc::Rc<KindRecorder>);
        impl SchedHook for RecordingHook {
            fn on_schedule(&mut self, ctx: &ScheduleContext<'_>) -> Decision {
                if ctx.kind == ThreadKind::Kernel {
                    self.0.kernel_seen.set(true);
                }
                Decision::Run
            }
        }
        let recorder = std::rc::Rc::new(KindRecorder::default());
        let mut sys = system();
        sys.set_hook(Box::new(RecordingHook(recorder.clone())));
        sys.spawn(
            ThreadKind::Kernel,
            Box::new(FixedWork::new(SimDuration::from_millis(10), 0.5)),
        );
        sys.run_until(SimTime::from_secs(1));
        assert!(recorder.kernel_seen.get());
    }

    #[test]
    fn chunked_run_is_bit_identical_to_run_until() {
        let build = || {
            let mut sys = system();
            sys.machine_mut().settle_idle();
            sys.set_hook(Box::new(TestInjector {
                p: 0.3,
                quantum: SimDuration::from_millis(5),
                rng: SimRng::new(11),
            }));
            for _ in 0..4 {
                sys.spawn(ThreadKind::User, Box::new(Spin::new(1.0)));
            }
            sys
        };
        let deadline = SimTime::from_secs(5);
        let mut plain = build();
        plain.run_until(deadline);

        let mut chunked = build();
        let mut events = 0;
        loop {
            let n = chunked.run_events(40, deadline);
            events += n;
            if n < 40 {
                break;
            }
        }
        chunked.run_until(deadline);
        assert!(events > 40, "the span must take several chunks");
        assert_eq!(plain.now(), chunked.now());
        assert_eq!(
            format!("{:?}", plain.machine()),
            format!("{:?}", chunked.machine())
        );
        assert_eq!(plain.total_injected_idles(), chunked.total_injected_idles());
        let samples = |sys: &System| {
            sys.mean_temp_series()
                .iter()
                .map(|(t, v)| (t, v.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(samples(&plain), samples(&chunked));
    }
}

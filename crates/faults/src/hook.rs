//! Scheduler-path fault injection: a [`FaultyHook`] wraps any
//! [`SchedHook`] and perturbs the hook traffic itself — dropped
//! `on_schedule` consultations, suppressed controller ticks, and jittered
//! idle-wakeup quanta — as scheduled by a [`FaultPlan`].
//!
//! With an empty plan the wrapper is a pure passthrough: it draws no
//! random numbers and forwards every call unchanged, so the wrapped
//! hook's RNG stream (and therefore the whole simulation) is bit-identical
//! to running without the wrapper.

use dimetrodon_sched::{Decision, SchedHook, ScheduleContext};
use dimetrodon_sim_core::{SimDuration, SimRng, SimTime};

use crate::plan::FaultPlan;

/// The smallest idle quantum jitter may shrink an injection to. Keeps a
/// jittered wakeup from degenerating into a zero-length (and therefore
/// schedule-breaking) idle period.
const MIN_JITTERED_QUANTUM: SimDuration = SimDuration::from_micros(10);

/// A [`SchedHook`] wrapper that injects scheduler-side faults.
#[derive(Debug)]
pub struct FaultyHook {
    inner: Box<dyn SchedHook>,
    plan: FaultPlan,
    rng: SimRng,
    dropped_hooks: u64,
    dropped_ticks: u64,
    jittered_wakeups: u64,
}

impl FaultyHook {
    /// Wraps `inner`, perturbing its hook traffic per `plan`.
    pub fn new(inner: Box<dyn SchedHook>, plan: FaultPlan, seed: u64) -> Self {
        FaultyHook {
            inner,
            plan,
            rng: SimRng::new(seed),
            dropped_hooks: 0,
            dropped_ticks: 0,
            jittered_wakeups: 0,
        }
    }

    /// The wrapped hook.
    pub fn inner(&self) -> &dyn SchedHook {
        self.inner.as_ref()
    }

    /// `on_schedule` consultations swallowed by drop-hooks faults.
    pub fn dropped_hooks(&self) -> u64 {
        self.dropped_hooks
    }

    /// Controller ticks swallowed by drop-ticks faults.
    pub fn dropped_ticks(&self) -> u64 {
        self.dropped_ticks
    }

    /// Idle injections whose quantum was jittered.
    pub fn jittered_wakeups(&self) -> u64 {
        self.jittered_wakeups
    }
}

impl SchedHook for FaultyHook {
    fn on_schedule(&mut self, ctx: &ScheduleContext<'_>) -> Decision {
        let core = ctx.core.index();
        if let Some(p) = self.plan.drop_hook_p(core, ctx.now) {
            if self.rng.bernoulli(p) {
                // The kernel dispatched without consulting the policy:
                // the selected thread just runs.
                self.dropped_hooks += 1;
                return Decision::Run;
            }
        }
        let decision = self.inner.on_schedule(ctx);
        if let Decision::InjectIdle(quantum) = decision {
            if let Some(jitter) = self.plan.wakeup_jitter(core, ctx.now) {
                let delta = self.rng.uniform_range(-1.0, 1.0) * jitter.as_nanos() as f64;
                let jittered = (quantum.as_nanos() as f64 + delta)
                    .max(MIN_JITTERED_QUANTUM.as_nanos() as f64);
                self.jittered_wakeups += 1;
                return Decision::InjectIdle(SimDuration::from_nanos(jittered.round() as u64));
            }
        }
        decision
    }

    fn on_tick(&mut self, now: SimTime, machine: &dimetrodon_machine::Machine) {
        if self.plan.ticks_dropped(now) {
            // The control daemon missed its timer: the inner policy never
            // hears about this second.
            self.dropped_ticks += 1;
            return;
        }
        self.inner.on_tick(now, machine);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultKind, FaultTarget};
    use dimetrodon_machine::{CoreId, Machine, MachineConfig};
    use dimetrodon_sched::{ThreadId, ThreadKind};

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    /// A deterministic stub policy that always injects a fixed quantum
    /// and counts its traffic.
    #[derive(Debug, Default, Clone)]
    struct CountingHook {
        schedules: u64,
        ticks: u64,
    }

    impl SchedHook for CountingHook {
        fn on_schedule(&mut self, _ctx: &ScheduleContext<'_>) -> Decision {
            self.schedules += 1;
            Decision::InjectIdle(SimDuration::from_millis(5))
        }

        fn on_tick(&mut self, _now: SimTime, _machine: &Machine) {
            self.ticks += 1;
        }

        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
    }

    fn consult(hook: &mut FaultyHook, machine: &Machine, now: SimTime) -> Decision {
        let ctx = ScheduleContext {
            core: CoreId(0),
            thread: ThreadId(1),
            kind: ThreadKind::User,
            now,
            machine,
        };
        hook.on_schedule(&ctx)
    }

    fn inner_counts(hook: &FaultyHook) -> (u64, u64) {
        let counting = hook
            .inner()
            .as_any()
            .and_then(|a| a.downcast_ref::<CountingHook>())
            .expect("inner hook is the counting stub");
        (counting.schedules, counting.ticks)
    }

    #[test]
    fn empty_plan_is_pure_passthrough() {
        let machine = Machine::new(MachineConfig::xeon_e5520()).expect("machine builds");
        let mut hook = FaultyHook::new(Box::<CountingHook>::default(), FaultPlan::new(), 9);
        for i in 0..10 {
            let d = consult(&mut hook, &machine, secs(i));
            assert_eq!(d, Decision::InjectIdle(SimDuration::from_millis(5)));
            hook.on_tick(secs(i), &machine);
        }
        assert_eq!(inner_counts(&hook), (10, 10));
        assert_eq!(hook.dropped_hooks(), 0);
        assert_eq!(hook.dropped_ticks(), 0);
        assert_eq!(hook.jittered_wakeups(), 0);
    }

    #[test]
    fn drop_hooks_swallows_consultations() {
        let machine = Machine::new(MachineConfig::xeon_e5520()).expect("machine builds");
        let plan =
            FaultPlan::new().with(secs(0), FaultTarget::All, FaultKind::DropHooks(1.0), None);
        let mut hook = FaultyHook::new(Box::<CountingHook>::default(), plan, 9);
        for i in 0..10 {
            assert_eq!(consult(&mut hook, &machine, secs(i)), Decision::Run);
        }
        assert_eq!(inner_counts(&hook).0, 0, "inner policy never consulted");
        assert_eq!(hook.dropped_hooks(), 10);
    }

    #[test]
    fn drop_ticks_starves_the_controller() {
        let machine = Machine::new(MachineConfig::xeon_e5520()).expect("machine builds");
        let plan = FaultPlan::new().with(
            secs(2),
            FaultTarget::All,
            FaultKind::DropTicks,
            Some(SimDuration::from_secs(3)),
        );
        let mut hook = FaultyHook::new(Box::<CountingHook>::default(), plan, 9);
        for i in 0..10 {
            hook.on_tick(secs(i), &machine);
        }
        assert_eq!(inner_counts(&hook).1, 7, "ticks at t=2,3,4 are swallowed");
        assert_eq!(hook.dropped_ticks(), 3);
    }

    #[test]
    fn wakeup_jitter_perturbs_but_bounds_the_quantum() {
        let machine = Machine::new(MachineConfig::xeon_e5520()).expect("machine builds");
        let jitter = SimDuration::from_millis(2);
        let plan = FaultPlan::new().with(
            secs(0),
            FaultTarget::All,
            FaultKind::WakeupJitter(jitter),
            None,
        );
        let mut hook = FaultyHook::new(Box::<CountingHook>::default(), plan, 9);
        let nominal = SimDuration::from_millis(5);
        let mut saw_change = false;
        for i in 0..20 {
            match consult(&mut hook, &machine, secs(i)) {
                Decision::InjectIdle(q) => {
                    assert!(q >= MIN_JITTERED_QUANTUM);
                    assert!(q <= nominal + jitter, "jitter bounded by the plan's span");
                    if q != nominal {
                        saw_change = true;
                    }
                }
                Decision::Run => panic!("stub always injects"),
            }
        }
        assert!(saw_change, "20 draws at ±2ms must move at least one quantum");
        assert_eq!(hook.jittered_wakeups(), 20);
    }

    #[test]
    fn same_seed_same_fault_stream() {
        let machine = Machine::new(MachineConfig::xeon_e5520()).expect("machine builds");
        let plan =
            FaultPlan::new().with(secs(0), FaultTarget::All, FaultKind::DropHooks(0.5), None);
        let run = |seed: u64| {
            let mut hook = FaultyHook::new(Box::<CountingHook>::default(), plan.clone(), seed);
            (0..64).map(|i| consult(&mut hook, &machine, secs(i)) == Decision::Run).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "identical seeds, identical drop pattern");
        assert_ne!(run(7), run(8), "different seeds decorrelate");
    }
}

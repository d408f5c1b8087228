//! SMT idle co-scheduling (beyond-the-paper extension).
//!
//! The paper disabled SMT because "in order to cause the entire core to
//! enter the C1E low power state we need to halt all thread contexts on
//! the core. This is feasible but requires additional care in
//! co-scheduling idle quanta" (§3.2). [`SmtCoScheduler`] is that
//! additional care: when the wrapped [`DimetrodonHook`] injects an idle
//! quantum on one hardware thread, the co-scheduler requests a matching
//! idle on the sibling context so the two idle windows overlap and the
//! physical core actually reaches C1E.
//!
//! Without co-scheduling, sibling contexts inject independently: their
//! idle windows coincide only a `p²`-ish fraction of the time, the core
//! rarely halts completely, and most injected quanta buy no deep-idle
//! cooling at all — which is why the paper turned SMT off rather than
//! inject naively.

use std::collections::BTreeMap;

use dimetrodon_machine::CoreId;
use dimetrodon_sched::{Decision, SchedHook, ScheduleContext};
use dimetrodon_sim_core::{SimDuration, SimTime};

use crate::hook::DimetrodonHook;

/// Wraps a [`DimetrodonHook`] with sibling idle co-scheduling for SMT
/// machines.
///
/// On non-SMT machines (no siblings) it behaves exactly like the wrapped
/// hook.
#[derive(Debug)]
pub struct SmtCoScheduler {
    inner: DimetrodonHook,
    /// Outstanding co-idle requests: sibling CPU → end of the window it
    /// should idle out.
    pending: BTreeMap<CoreId, SimTime>,
    co_injections: u64,
}

/// Ignore co-idle requests whose remaining window is shorter than this —
/// there is nothing left worth halting for.
const MIN_CO_IDLE: SimDuration = SimDuration::from_micros(200);

impl SmtCoScheduler {
    /// Wraps a hook.
    pub fn new(inner: DimetrodonHook) -> Self {
        SmtCoScheduler {
            inner,
            pending: BTreeMap::new(),
            co_injections: 0,
        }
    }

    /// The wrapped hook (for its counters and policy handle).
    pub fn hook(&self) -> &DimetrodonHook {
        &self.inner
    }

    /// Idle quanta injected purely to match a sibling's window.
    pub fn co_injections(&self) -> u64 {
        self.co_injections
    }
}

impl SchedHook for SmtCoScheduler {
    fn on_schedule(&mut self, ctx: &ScheduleContext<'_>) -> Decision {
        // Honour an outstanding co-idle request for this CPU first.
        if let Some(&until) = self.pending.get(&ctx.core) {
            self.pending.remove(&ctx.core);
            let remaining = until.saturating_since(ctx.now);
            if remaining >= MIN_CO_IDLE {
                self.co_injections += 1;
                return Decision::InjectIdle(remaining);
            }
        }
        let decision = self.inner.on_schedule(ctx);
        if let Decision::InjectIdle(quantum) = decision {
            if let Some(sibling) = ctx.machine.sibling_of(ctx.core) {
                // Ask the sibling to idle out the same window. If it is
                // naturally idle it is already halted; if it schedules
                // within the window, it will co-idle for the remainder.
                self.pending.insert(sibling, ctx.now + quantum);
            }
        }
        decision
    }

    fn on_tick(&mut self, now: SimTime, machine: &dimetrodon_machine::Machine) {
        // Expired requests are dropped lazily on decision; also prune on
        // ticks so the map cannot grow with stale CPUs.
        self.pending.retain(|_, &mut until| until > now);
        self.inner.on_tick(now, machine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{InjectionParams, PolicyHandle};
    use dimetrodon_machine::{Machine, MachineConfig};
    use dimetrodon_sched::{ThreadId, ThreadKind};

    fn ctx(machine: &Machine, core: usize, now_ms: u64) -> ScheduleContext<'_> {
        ScheduleContext {
            core: CoreId(core),
            thread: ThreadId(core as u64),
            kind: ThreadKind::User,
            now: SimTime::from_millis(now_ms),
            machine,
        }
    }

    fn always_inject() -> DimetrodonHook {
        let policy = PolicyHandle::new();
        policy.set_global(Some(InjectionParams::new(
            0.999_999,
            SimDuration::from_millis(100),
        )));
        DimetrodonHook::new(policy, 1)
    }

    #[test]
    fn sibling_receives_matching_idle() {
        let machine = Machine::new(MachineConfig::xeon_e5520_smt()).unwrap();
        let mut co = SmtCoScheduler::new(always_inject());
        // CPU 0 injects a 100 ms idle at t = 0.
        let d0 = co.on_schedule(&ctx(&machine, 0, 0));
        assert!(matches!(d0, Decision::InjectIdle(_)));
        // Its sibling (CPU 4) schedules 30 ms later: co-idle the
        // remaining 70 ms.
        let d4 = co.on_schedule(&ctx(&machine, 4, 30));
        assert_eq!(d4, Decision::InjectIdle(SimDuration::from_millis(70)));
        assert_eq!(co.co_injections(), 1);
    }

    #[test]
    fn expired_request_is_dropped() {
        let machine = Machine::new(MachineConfig::xeon_e5520_smt()).unwrap();
        let policy = PolicyHandle::new();
        policy.set_global(Some(InjectionParams::new(
            0.999_999,
            SimDuration::from_millis(10),
        )));
        let mut co = SmtCoScheduler::new(DimetrodonHook::new(policy.clone(), 2));
        let _ = co.on_schedule(&ctx(&machine, 0, 0)); // idle until t=10ms
        // Disable further injection so the delegate returns Run.
        policy.set_global(None);
        // Sibling arrives after the window: no stale co-idle.
        let d = co.on_schedule(&ctx(&machine, 4, 50));
        assert_eq!(d, Decision::Run);
        assert_eq!(co.co_injections(), 0);
    }

    #[test]
    fn non_smt_machine_passes_through() {
        let machine = Machine::new(MachineConfig::xeon_e5520()).unwrap();
        let mut co = SmtCoScheduler::new(always_inject());
        let d = co.on_schedule(&ctx(&machine, 0, 0));
        assert!(matches!(d, Decision::InjectIdle(_)));
        // No sibling: nothing pending.
        assert!(co.pending.is_empty());
    }

    #[test]
    fn tick_prunes_stale_requests() {
        let machine = Machine::new(MachineConfig::xeon_e5520_smt()).unwrap();
        let mut co = SmtCoScheduler::new(always_inject());
        let _ = co.on_schedule(&ctx(&machine, 0, 0));
        assert_eq!(co.pending.len(), 1);
        co.on_tick(SimTime::from_secs(1), &machine);
        assert!(co.pending.is_empty());
    }
}
